package profile

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"vibguard/internal/detector"
)

// TestShardRounding pins the power-of-two shard contract.
func TestShardRounding(t *testing.T) {
	cases := []struct{ in, want int }{
		{0, DefaultShards}, {-4, DefaultShards},
		{1, 1}, {2, 2}, {3, 4}, {5, 8}, {64, 64}, {65, 128},
	}
	for _, c := range cases {
		if got := NewStore(Config{Shards: c.in}).Shards(); got != c.want {
			t.Errorf("Shards(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

// TestObserveCalibration checks the EWMA and the clamp: the offset follows
// the legitimate-score mean but never leaves ±DefaultMaxOffset around
// detector.DefaultThreshold.
func TestObserveCalibration(t *testing.T) {
	s := NewStore(Config{})
	// First observation seeds the mean directly.
	p := s.Observe("alice", 0.70)
	if p.Mean != 0.70 || p.Samples != 1 {
		t.Fatalf("first observe: mean %v samples %d, want 0.70/1", p.Mean, p.Samples)
	}
	// 0.70 - margin(0.15) - base(0.45) = 0.10 > MaxOffset → clamped high.
	if p.Offset != DefaultMaxOffset {
		t.Fatalf("offset %v, want clamped %v", p.Offset, DefaultMaxOffset)
	}
	// A user whose legit scores run low pushes the threshold down, clamped.
	p = s.Observe("bob", 0.30)
	if p.Offset != -DefaultMaxOffset {
		t.Fatalf("low-score offset %v, want %v", p.Offset, -DefaultMaxOffset)
	}
	// An in-band mean lands unclamped: 0.62 - 0.15 - 0.45 = 0.02.
	p = s.Observe("carol", 0.62)
	if math.Abs(p.Offset-0.02) > 1e-12 {
		t.Fatalf("in-band offset %v, want 0.02", p.Offset)
	}
	// EWMA: second observation blends with Alpha.
	p = s.Observe("alice", 0.50)
	wantMean := (1-DefaultAlpha)*0.70 + DefaultAlpha*0.50
	if math.Abs(p.Mean-wantMean) > 1e-12 || p.Samples != 2 {
		t.Fatalf("ewma mean %v samples %d, want %v/2", p.Mean, p.Samples, wantMean)
	}
	// Non-finite scores are ignored entirely.
	before, _ := s.Lookup("alice")
	p = s.Observe("alice", math.NaN())
	if p.Mean != before.Mean || p.Samples != before.Samples {
		t.Fatalf("NaN observe mutated the profile: %+v vs %+v", p, before)
	}
	if p = s.Observe("alice", math.Inf(1)); p.Samples != before.Samples {
		t.Fatalf("Inf observe mutated the profile")
	}
}

// TestAddDevices checks dedup, sorting, and empty-address filtering.
func TestAddDevices(t *testing.T) {
	s := NewStore(Config{})
	s.AddDevices("u", "watch:2", "earbud:1")
	s.AddDevices("u", "watch:2", "", "anklet:3")
	p, ok := s.Lookup("u")
	if !ok {
		t.Fatal("profile not created by AddDevices")
	}
	want := []string{"anklet:3", "earbud:1", "watch:2"}
	if len(p.Devices) != len(want) {
		t.Fatalf("devices %v, want %v", p.Devices, want)
	}
	for i := range want {
		if p.Devices[i] != want[i] {
			t.Fatalf("devices %v, want %v", p.Devices, want)
		}
	}
	// The returned copy must be detached from the store.
	p.Devices[0] = "mutated"
	q, _ := s.Lookup("u")
	if q.Devices[0] != "anklet:3" {
		t.Fatal("Lookup returned a live slice into the store")
	}
}

// TestRangeDeterministic pins the sorted walk order.
func TestRangeDeterministic(t *testing.T) {
	s := NewStore(Config{Shards: 4})
	for i := 0; i < 32; i++ {
		s.Observe(fmt.Sprintf("user-%02d", i), 0.6)
	}
	walk := func() []string {
		var ids []string
		s.Range(func(p Profile) bool {
			ids = append(ids, p.UserID)
			return true
		})
		return ids
	}
	a, b := walk(), walk()
	if len(a) != 32 || len(b) != 32 {
		t.Fatalf("walk lengths %d/%d, want 32", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("walk order diverged at %d: %s vs %s", i, a[i], b[i])
		}
	}
}

// TestStoreConcurrency hammers one store from many goroutines — reads,
// calibration writes, device registration, snapshot encodes, and LRU
// churn — under the race detector (make profile-race).
func TestStoreConcurrency(t *testing.T) {
	s := NewStore(Config{Shards: 8})
	cache := NewLRU(16)
	const goroutines = 16
	const opsPerG = 400
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < opsPerG; i++ {
				user := fmt.Sprintf("user-%d", rng.Intn(64))
				switch i % 5 {
				case 0:
					p := s.Observe(user, 0.4+0.3*rng.Float64())
					cache.Put(user, detector.DefaultThreshold+p.Offset)
				case 1:
					if _, ok := cache.Get(user); !ok {
						off, _ := s.Offset(user)
						cache.Put(user, detector.DefaultThreshold+off)
					}
				case 2:
					s.AddDevices(user, fmt.Sprintf("dev-%d", rng.Intn(4)))
				case 3:
					_, _ = s.Lookup(user)
				case 4:
					_ = s.EncodeSnapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Len() == 0 || s.Len() > 64 {
		t.Fatalf("store holds %d users, want 1..64", s.Len())
	}
	for _, u := range cache.Users() {
		if _, ok := s.Lookup(u); !ok {
			t.Fatalf("cache holds unknown user %q", u)
		}
	}
}

// TestOffsetUnknownUser pins that unknown users run at the paper's
// threshold (offset 0, not known).
func TestOffsetUnknownUser(t *testing.T) {
	s := NewStore(Config{})
	off, known := s.Offset("ghost")
	if off != 0 || known {
		t.Fatalf("unknown user offset %v known=%v, want 0/false", off, known)
	}
}
