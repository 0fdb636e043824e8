package profile

import (
	"fmt"
	"testing"
)

func wantUsers(t *testing.T, l *LRU, want ...string) {
	t.Helper()
	got := l.Users()
	if len(got) != len(want) {
		t.Fatalf("cache holds %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cache order %v, want %v", got, want)
		}
	}
}

// TestLRUEvictionDeterministic pins the exact eviction sequence for a
// fixed access pattern: Get and Put both refresh recency, and the Back
// entry — and only the Back entry — is evicted when a new user arrives
// at capacity.
func TestLRUEvictionDeterministic(t *testing.T) {
	l := NewLRU(3)
	l.Put("a", 0.45)
	l.Put("b", 0.46)
	l.Put("c", 0.47)
	wantUsers(t, l, "c", "b", "a")

	// Get refreshes: "a" moves to the front.
	if v, ok := l.Get("a"); !ok || v != 0.45 {
		t.Fatalf("Get(a) = %v/%v, want 0.45/true", v, ok)
	}
	wantUsers(t, l, "a", "c", "b")

	// Insert at capacity evicts the Back ("b"), nothing else.
	l.Put("d", 0.48)
	wantUsers(t, l, "d", "a", "c")
	if _, ok := l.Get("b"); ok {
		t.Fatal("evicted user still cached")
	}

	// Put on an existing user refreshes in place, no eviction.
	l.Put("c", 0.50)
	wantUsers(t, l, "c", "d", "a")
	if v, _ := l.Get("c"); v != 0.50 {
		t.Fatalf("refreshed threshold %v, want 0.50", v)
	}

	// The next eviction victim is "a", the current Back.
	l.Put("e", 0.51)
	wantUsers(t, l, "e", "c", "d")
}

// TestLRUCapacityFloor pins the minimum capacity of one.
func TestLRUCapacityFloor(t *testing.T) {
	l := NewLRU(0)
	l.Put("a", 1)
	l.Put("b", 2)
	wantUsers(t, l, "b")
}

// TestLRUSweep runs a long deterministic access sequence and checks the
// final contents exactly — a change to the eviction policy shows up as a
// different survivor set.
func TestLRUSweep(t *testing.T) {
	l := NewLRU(8)
	for i := 0; i < 100; i++ {
		u := fmt.Sprintf("user-%d", i%13)
		if i%3 == 0 {
			l.Get(u)
		}
		l.Put(u, float64(i))
	}
	// i=99 → user-8; walking backwards over the last distinct touches:
	// 99:u8 98:u7 97:u6 96:u5 95:u4 94:u3 93:u2 92:u1.
	wantUsers(t, l, "user-8", "user-7", "user-6", "user-5",
		"user-4", "user-3", "user-2", "user-1")
}

// TestLRUMissKeepsOrder checks that a miss neither inserts the user nor
// refreshes anyone, and that Len stops growing at capacity.
func TestLRUMissKeepsOrder(t *testing.T) {
	l := NewLRU(2)
	if _, ok := l.Get("ghost"); ok {
		t.Fatal("empty cache reported a hit")
	}
	if l.Len() != 0 {
		t.Fatalf("len %d after a miss, want 0", l.Len())
	}
	l.Put("a", 1)
	l.Put("b", 2)
	if _, ok := l.Get("ghost"); ok {
		t.Fatal("absent user reported a hit")
	}
	wantUsers(t, l, "b", "a")
	l.Put("c", 3)
	if l.Len() != 2 {
		t.Fatalf("len %d at capacity, want 2", l.Len())
	}
	wantUsers(t, l, "c", "b")
}
