// Package profile is the per-user stateful layer of the serving tier: a
// sharded in-memory store of per-user calibration state, persisted to
// disk as atomic versioned snapshots. The paper's defense is per-session
// — one VA recording, one wearable, one fixed threshold — but WearID-style
// cross-domain similarity checks improve materially with per-user
// calibration, and a million-user deployment needs that state to survive
// sessions (and restarts).
//
// A profile holds two things:
//
//   - an online threshold offset: an EWMA over the user's recent
//     legitimate scores positions a personalized decision threshold a
//     fixed margin below the user's typical score, and the offset from
//     detector.DefaultThreshold is clamped to ±DefaultMaxOffset so a
//     drifting (or poisoned) calibration can never move the threshold far
//     from the paper's equal-error point;
//   - the user's known wearable devices (watch, earbud, …), so the
//     serving tier can fuse multiple cross-domain views of one command.
//
// The store shards users across power-of-two buckets with an RWMutex per
// shard; the shard index comes from the same FNV-1a + SplitMix64-finalizer
// hash the routing ring uses on UserID, so profiles shard the way sessions
// route. Snapshots (snapshot.go) use the framed-wire encoding style of
// internal/wire and are written atomically (temp file + rename).
package profile

import (
	"math"
	"sort"
	"sync"

	"vibguard/internal/detector"
)

// Calibration defaults. They are deliberately conservative: the offset
// moves slowly (Alpha) and can never leave a narrow band around the
// paper's threshold (DefaultMaxOffset), so per-user adaptation refines the
// decision boundary without ever being able to disable it.
const (
	// DefaultShards is the default shard count (power of two).
	DefaultShards = 64
	// DefaultAlpha is the EWMA weight of the newest legitimate score.
	DefaultAlpha = 0.2
	// DefaultMargin is how far below the user's typical legitimate score
	// the personalized threshold sits.
	DefaultMargin = 0.15
	// DefaultMaxOffset clamps the personalized threshold to
	// detector.DefaultThreshold ± DefaultMaxOffset.
	DefaultMaxOffset = 0.08
)

// Config parameterizes a Store. The zero value uses the defaults above.
type Config struct {
	// Shards is the shard count, rounded up to the next power of two
	// (default DefaultShards).
	Shards int
	// Alpha is the EWMA weight of the newest legitimate score in (0, 1]
	// (default DefaultAlpha).
	Alpha float64
}

// withDefaults resolves the zero value.
func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = DefaultShards
	}
	c.Shards = nextPowerOfTwo(c.Shards)
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = DefaultAlpha
	}
	return c
}

// nextPowerOfTwo rounds n up to a power of two.
func nextPowerOfTwo(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Profile is one user's calibration state. Store methods return copies;
// mutating a returned Profile never touches the store.
type Profile struct {
	// UserID is the wearable-paired user the profile belongs to — the
	// same tenancy key the routing ring hashes.
	UserID string
	// Mean is the EWMA of the user's recent legitimate scores.
	Mean float64
	// Samples counts the legitimate scores folded into Mean.
	Samples uint64
	// Offset is the personalized threshold offset: the effective decision
	// threshold for the user is detector.DefaultThreshold + Offset, and
	// |Offset| is clamped to DefaultMaxOffset.
	Offset float64
	// Devices are the user's known wearable addresses, sorted.
	Devices []string
}

// clone deep-copies a profile for return to callers.
func (p *Profile) clone() Profile {
	out := *p
	out.Devices = append([]string(nil), p.Devices...)
	return out
}

// shard is one lock-striped bucket of users.
type shard struct {
	mu    sync.RWMutex
	users map[string]*Profile
}

// Store is the sharded per-user profile store. All methods are safe for
// concurrent use; the hot path (Lookup, Observe) takes exactly one shard
// lock.
type Store struct {
	cfg    Config
	mask   uint64
	shards []shard
}

// NewStore builds an empty store.
func NewStore(cfg Config) *Store {
	cfg = cfg.withDefaults()
	s := &Store{cfg: cfg, mask: uint64(cfg.Shards - 1), shards: make([]shard, cfg.Shards)}
	for i := range s.shards {
		s.shards[i].users = make(map[string]*Profile)
	}
	return s
}

// Shards returns the resolved (power-of-two) shard count.
func (s *Store) Shards() int { return len(s.shards) }

// shardFor picks the user's shard: FNV-1a over the id, then the SplitMix64
// finalizer — the routing ring's hash shape, so short ids with shared
// prefixes still spread (and profiles shard the way sessions route).
func (s *Store) shardFor(user string) *shard {
	return &s.shards[mixHash(user)&s.mask]
}

// mixHash is FNV-1a followed by the SplitMix64 finalizer.
func mixHash(key string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// Len returns the number of stored profiles.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.users)
		sh.mu.RUnlock()
	}
	return n
}

// Lookup returns a copy of the user's profile.
func (s *Store) Lookup(user string) (Profile, bool) {
	sh := s.shardFor(user)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	p, ok := sh.users[user]
	if !ok {
		return Profile{}, false
	}
	return p.clone(), true
}

// Offset returns the user's personalized threshold offset (0 for unknown
// users — an unknown user runs at the paper's threshold).
func (s *Store) Offset(user string) (offset float64, known bool) {
	sh := s.shardFor(user)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if p, ok := sh.users[user]; ok {
		return p.Offset, true
	}
	return 0, false
}

// Observe folds one legitimate session score into the user's calibration
// (creating the profile on first sight) and returns the updated copy.
// Non-finite scores are ignored: the pipeline guarantees finite scores,
// so a non-finite value here is a caller bug that must not poison the
// EWMA. Attack-verdict scores must never be fed to Observe — calibration
// tracks the user's legitimate voice, not the adversary's.
func (s *Store) Observe(user string, score float64) Profile {
	sh := s.shardFor(user)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	p, ok := sh.users[user]
	if !ok {
		p = &Profile{UserID: user}
		sh.users[user] = p
	}
	if math.IsNaN(score) || math.IsInf(score, 0) {
		return p.clone()
	}
	if p.Samples == 0 {
		p.Mean = score
	} else {
		p.Mean = (1-s.cfg.Alpha)*p.Mean + s.cfg.Alpha*score
	}
	p.Samples++
	p.Offset = offsetFor(p.Mean)
	return p.clone()
}

// offsetFor maps a legitimate-score EWMA to the clamped threshold offset:
// the personalized threshold wants to sit DefaultMargin below the user's
// typical score, but may never leave detector.DefaultThreshold ±
// DefaultMaxOffset.
func offsetFor(mean float64) float64 {
	off := (mean - DefaultMargin) - detector.DefaultThreshold
	if off > DefaultMaxOffset {
		off = DefaultMaxOffset
	}
	if off < -DefaultMaxOffset {
		off = -DefaultMaxOffset
	}
	return off
}

// AddDevices records wearable addresses as known devices of the user
// (creating the profile on first sight). Duplicates are ignored; the
// device list stays sorted so snapshots and fusion summaries are
// deterministic.
func (s *Store) AddDevices(user string, addrs ...string) {
	if len(addrs) == 0 {
		return
	}
	sh := s.shardFor(user)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	p, ok := sh.users[user]
	if !ok {
		p = &Profile{UserID: user}
		sh.users[user] = p
	}
	for _, addr := range addrs {
		if addr == "" {
			continue
		}
		i := sort.SearchStrings(p.Devices, addr)
		if i < len(p.Devices) && p.Devices[i] == addr {
			continue
		}
		p.Devices = append(p.Devices, "")
		copy(p.Devices[i+1:], p.Devices[i:])
		p.Devices[i] = addr
	}
}

// Range calls f for a copy of every profile, shard by shard, until f
// returns false. Iteration order is deterministic given identical insert
// histories only within a shard's sort; Range sorts each shard's users so
// the full walk is deterministic regardless of map order.
func (s *Store) Range(f func(Profile) bool) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		ids := make([]string, 0, len(sh.users))
		for id := range sh.users {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		profiles := make([]Profile, 0, len(ids))
		for _, id := range ids {
			profiles = append(profiles, sh.users[id].clone())
		}
		sh.mu.RUnlock()
		for _, p := range profiles {
			if !f(p) {
				return
			}
		}
	}
}
