package profile

import (
	"container/list"
	"sync"
)

// LRU is a fixed-capacity cache of per-user effective thresholds — the
// front the serve workers consult so a known user skips recalibration
// (no store shard lock, no offset recomputation) on the hot path.
// Eviction is deterministic: strictly least-recently-used, with Get and
// Put both counting as use, so a fixed access sequence always evicts the
// same users in the same order. Hits and misses feed the
// profile.cache.{hits,misses} counters. Safe for concurrent use.
type LRU struct {
	capacity int

	mu    sync.Mutex
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

// NewLRU builds a cache holding at most capacity users (minimum 1).
func NewLRU(capacity int) *LRU {
	if capacity < 1 {
		capacity = 1
	}
	return &LRU{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
	}
}

// lruEntry is one cached user.
type lruEntry struct {
	user      string
	threshold float64
}

// Len returns the number of cached users.
func (l *LRU) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ll.Len()
}

// Get returns the user's cached effective threshold and records the
// cache outcome (hit refreshes recency).
func (l *LRU) Get(user string) (threshold float64, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	el, ok := l.items[user]
	if !ok {
		metCacheMisses.Inc()
		return 0, false
	}
	metCacheHits.Inc()
	l.ll.MoveToFront(el)
	return el.Value.(*lruEntry).threshold, true
}

// Put inserts or refreshes the user's effective threshold, evicting the
// least-recently-used entry when the cache is full.
func (l *LRU) Put(user string, threshold float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if el, ok := l.items[user]; ok {
		el.Value.(*lruEntry).threshold = threshold
		l.ll.MoveToFront(el)
		return
	}
	if l.ll.Len() >= l.capacity {
		oldest := l.ll.Back()
		l.ll.Remove(oldest)
		delete(l.items, oldest.Value.(*lruEntry).user)
		metCacheEvictions.Inc()
	}
	l.items[user] = l.ll.PushFront(&lruEntry{user: user, threshold: threshold})
}

// Users returns the cached users from most to least recently used — the
// deterministic eviction order, exposed for tests and debugging.
func (l *LRU) Users() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, 0, l.ll.Len())
	for el := l.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*lruEntry).user)
	}
	return out
}
