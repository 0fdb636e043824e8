package serve_test

import (
	"errors"
	"math"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"vibguard/internal/core"
	"vibguard/internal/device"
	"vibguard/internal/obs"
	"vibguard/internal/profile"
	"vibguard/internal/segment"
	"vibguard/internal/serve"
)

// deadAddr returns an address with no listener behind it, so wearable
// fetches against it fail after the fast retry budget.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()
	return addr
}

// TestSubmitUserIDRequired pins the profile-backed session contract: a
// request carrying WearableAddrs without a UserID is rejected with the
// typed sentinel, locally and across the wire.
func TestSubmitUserIDRequired(t *testing.T) {
	sc := scenarioFor(t)
	// Agents before the server: test cleanups run LIFO, and the server's
	// shutdown must close its cached wearable clients before the agents
	// wait out their in-flight connections.
	agent := newAgent(t, sc.legitWear)
	srv := newServer(t, serve.Config{Workers: 2, Seed: serveSeed})

	ctx, cancel := contextWithTimeout(10 * time.Second)
	defer cancel()
	req := serve.Request{
		WearableAddr:  agent.Addr(),
		WearableAddrs: []string{agent.Addr()},
		VARecording:   sc.legitVA,
		RNGSeed:       serveSeed,
	}
	if _, err := srv.Submit(ctx, req); !errors.Is(err, serve.ErrUserIDRequired) {
		t.Fatalf("Submit err %v, want ErrUserIDRequired", err)
	}

	// Across the wire: the rejection must come back as the same sentinel
	// (code user_required), not an opaque RemoteError.
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client, err := serve.DialServer(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Inspect(req); !errors.Is(err, serve.ErrUserIDRequired) {
		t.Fatalf("wire Inspect err %v, want ErrUserIDRequired", err)
	}

	// The same request with a UserID is accepted end to end.
	req.UserID = "alice"
	v, err := client.Inspect(req)
	if err != nil {
		t.Fatal(err)
	}
	if v.Attack {
		t.Fatal("legitimate fused session flagged as attack")
	}
}

// TestFusionTwoWearables pins the fused path end to end: two wearable
// agents, one session, deterministic bit-identical fused scores for a
// pinned seed, and a fused verdict distinct from neither device failing.
func TestFusionTwoWearables(t *testing.T) {
	sc := scenarioFor(t)
	watch := newAgent(t, sc.legitWear)
	earbud := newAgent(t, sc.legitWear)
	attackWatch := newAgent(t, sc.attackWear)
	attackEarbud := newAgent(t, sc.attackWear)
	srv := newServer(t, serve.Config{Workers: 2, Seed: serveSeed})

	submit := func() *core.Verdict {
		t.Helper()
		ctx, cancel := contextWithTimeout(20 * time.Second)
		defer cancel()
		v, err := srv.Submit(ctx, serve.Request{
			UserID:        "alice",
			WearableAddr:  watch.Addr(),
			WearableAddrs: []string{earbud.Addr()},
			VARecording:   sc.legitVA,
			RNGSeed:       serveSeed + 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	v1 := submit()
	if v1.Attack {
		t.Fatal("legitimate two-wearable session fused to attack")
	}
	v2 := submit()
	if math.Float64bits(v1.Score) != math.Float64bits(v2.Score) {
		t.Fatalf("fused score not deterministic: %x vs %x",
			math.Float64bits(v1.Score), math.Float64bits(v2.Score))
	}

	// An attack session fuses to an attack verdict.
	ctx, cancel := contextWithTimeout(20 * time.Second)
	defer cancel()
	va, err := srv.Submit(ctx, serve.Request{
		UserID:        "alice",
		WearableAddr:  attackWatch.Addr(),
		WearableAddrs: []string{attackEarbud.Addr()},
		VARecording:   sc.attackVA,
		RNGSeed:       serveSeed + 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !va.Attack {
		t.Fatal("thru-barrier attack not flagged by the fused verdict")
	}
}

// countingSegmenter returns fixed spans and counts its calls.
type countingSegmenter struct {
	spans []segment.Span
	calls atomic.Int64
}

func (c *countingSegmenter) EffectiveSpans([]float64) ([]segment.Span, error) {
	c.calls.Add(1)
	return c.spans, nil
}

// TestFusedSessionSegmentsOnce pins the shared work of a fused session:
// a two-wearable session runs the segmenter once, not once per wearable.
func TestFusedSessionSegmentsOnce(t *testing.T) {
	sc := scenarioFor(t)
	watch := newAgent(t, sc.legitWear)
	earbud := newAgent(t, sc.legitWear)
	seg := &countingSegmenter{spans: sc.spans}
	srv := newServer(t, serve.Config{Workers: 1, Seed: serveSeed, NewDefense: func() (*core.Defense, error) {
		clone := *device.NewFossilGen5()
		return core.NewDefense(core.DefaultConfig(&clone, seg))
	}})
	ctx, cancel := contextWithTimeout(20 * time.Second)
	defer cancel()
	v, err := srv.Submit(ctx, serve.Request{
		UserID:        "alice",
		WearableAddr:  watch.Addr(),
		WearableAddrs: []string{earbud.Addr()},
		VARecording:   sc.legitVA,
		RNGSeed:       serveSeed + 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.Attack {
		t.Fatal("legitimate two-wearable session fused to attack")
	}
	if n := seg.calls.Load(); n != 1 {
		t.Fatalf("two-wearable session ran the segmenter %d times, want 1", n)
	}
}

// TestFusedStreamBitIdenticalToFusedBatch pins the streamed fused path:
// with early exit off, the primary's stream falls back to batch Inspect
// and the extras are scored in one call after it, so the fused verdict
// equals the batch fused session's bit for bit, a dead extra included.
func TestFusedStreamBitIdenticalToFusedBatch(t *testing.T) {
	sc := scenarioFor(t)
	watch, earbud := newAgent(t, sc.legitWear), newAgent(t, sc.legitWear)
	ring := newAgent(t, sc.legitWear)
	attackWatch, attackEarbud := newAgent(t, sc.attackWear), newAgent(t, sc.attackWear)
	srv := newServer(t, serve.Config{Workers: 2, Seed: serveSeed, Stream: core.StreamConfig{DisableEarlyExit: true}})
	for _, tc := range []struct {
		name    string
		va      []float64
		primary string
		extras  []string
	}{
		{"legit, two wearables", sc.legitVA, watch.Addr(), []string{earbud.Addr()}},
		{"legit, three wearables and a dead one", sc.legitVA, watch.Addr(), []string{earbud.Addr(), deadAddr(t), ring.Addr()}},
		{"attack, two wearables", sc.attackVA, attackWatch.Addr(), []string{attackEarbud.Addr()}},
	} {
		req := serve.Request{UserID: "alice", WearableAddr: tc.primary, WearableAddrs: tc.extras, RNGSeed: serveSeed + 5}
		ctx, cancel := contextWithTimeout(20 * time.Second)
		batchReq := req
		batchReq.VARecording = tc.va
		want, err := srv.Submit(ctx, batchReq)
		if err != nil {
			cancel()
			t.Fatalf("%s: batch: %v", tc.name, err)
		}
		got, err := srv.SubmitStream(ctx, req, chunksOf(tc.va, streamChunk))
		cancel()
		if err != nil {
			t.Fatalf("%s: stream: %v", tc.name, err)
		}
		if math.Float64bits(got.Score) != math.Float64bits(want.Score) || got.Attack != want.Attack ||
			got.SyncOffset != want.SyncOffset || got.Early {
			t.Errorf("%s: streamed %+v, batch %+v", tc.name, got, want)
		}
	}
}

// TestFusionQuorumSurvivesDeadDevice pins the quorum rule at the server:
// one wearable unreachable, the session still gets a verdict from the
// surviving device; both wearables unreachable is a typed quorum failure.
func TestFusionQuorumSurvivesDeadDevice(t *testing.T) {
	sc := scenarioFor(t)
	watch := newAgent(t, sc.legitWear)
	srv := newServer(t, serve.Config{Workers: 2, Seed: serveSeed})
	hist := obs.Default().Histogram("fusion.devices")
	before := hist.Count()

	ctx, cancel := contextWithTimeout(20 * time.Second)
	defer cancel()
	v, err := srv.Submit(ctx, serve.Request{
		UserID:        "alice",
		WearableAddr:  watch.Addr(),
		WearableAddrs: []string{deadAddr(t)},
		VARecording:   sc.legitVA,
		RNGSeed:       serveSeed + 3,
	})
	if err != nil {
		t.Fatalf("quorum-of-one session failed: %v", err)
	}
	if v.Attack {
		t.Fatal("surviving device's legitimate verdict flipped to attack")
	}
	if hist.Count() != before+1 {
		t.Fatalf("fusion.devices histogram count %d, want %d", hist.Count(), before+1)
	}

	// Both devices dead: typed quorum failure, not a hang or a pass.
	ctx2, cancel2 := contextWithTimeout(20 * time.Second)
	defer cancel2()
	_, err = srv.Submit(ctx2, serve.Request{
		UserID:        "alice",
		WearableAddr:  deadAddr(t),
		WearableAddrs: []string{deadAddr(t)},
		VARecording:   sc.legitVA,
		RNGSeed:       serveSeed + 4,
	})
	if err == nil {
		t.Fatal("session with no reachable wearable produced a verdict")
	}
}

// TestProfileCacheAndCalibration pins the per-user profile layer in the
// worker: the first session for a user misses the worker's LRU, the
// second hits it, legitimate scores move the calibration EWMA, and the
// store accumulates the user's devices.
func TestProfileCacheAndCalibration(t *testing.T) {
	sc := scenarioFor(t)
	store := profile.NewStore(profile.Config{})
	watch := newAgent(t, sc.legitWear)
	// One worker, so both sessions share one LRU.
	srv := newServer(t, serve.Config{Workers: 1, Seed: serveSeed, Profiles: store})

	hits := obs.Default().Counter("profile.cache.hits")
	misses := obs.Default().Counter("profile.cache.misses")
	h0, m0 := hits.Value(), misses.Value()

	submit := func(seedOff int64) *core.Verdict {
		t.Helper()
		ctx, cancel := contextWithTimeout(20 * time.Second)
		defer cancel()
		v, err := srv.Submit(ctx, serve.Request{
			UserID:       "alice",
			WearableAddr: watch.Addr(),
			VARecording:  sc.legitVA,
			RNGSeed:      serveSeed + seedOff,
		})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if v := submit(10); v.Attack {
		t.Fatal("legitimate session flagged")
	}
	if misses.Value() != m0+1 {
		t.Fatalf("first session: %d new misses, want 1", misses.Value()-m0)
	}
	p, ok := store.Lookup("alice")
	if !ok || p.Samples != 1 {
		t.Fatalf("profile after first legit session: %+v ok=%v, want 1 sample", p, ok)
	}
	if len(p.Devices) != 1 || p.Devices[0] != watch.Addr() {
		t.Fatalf("devices %v, want [%s]", p.Devices, watch.Addr())
	}

	if v := submit(11); v.Attack {
		t.Fatal("second legitimate session flagged")
	}
	if hits.Value() != h0+1 {
		t.Fatalf("second session: %d new hits, want 1", hits.Value()-h0)
	}
	p, _ = store.Lookup("alice")
	if p.Samples != 2 {
		t.Fatalf("profile samples %d after two legit sessions, want 2", p.Samples)
	}
	if math.Abs(p.Offset) > profile.DefaultMaxOffset {
		t.Fatalf("calibration offset %v escaped the ±%v clamp", p.Offset, profile.DefaultMaxOffset)
	}

	// A session without a UserID bypasses the profile layer entirely.
	ctx, cancel := contextWithTimeout(20 * time.Second)
	defer cancel()
	if _, err := srv.Submit(ctx, serve.Request{
		WearableAddr: watch.Addr(), VARecording: sc.legitVA, RNGSeed: serveSeed + 12,
	}); err != nil {
		t.Fatal(err)
	}
	if store.Len() != 1 {
		t.Fatalf("anonymous session grew the store to %d users", store.Len())
	}
}

// TestClientStreamAbortNoLeak pins the abort path at the mux layer: a
// stream abandoned with Abort leaves the client's in-flight table empty,
// the server's late verdict is swallowed by the tombstone instead of
// killing the shared connection, and the connection keeps serving.
func TestClientStreamAbortNoLeak(t *testing.T) {
	sc := scenarioFor(t)
	agent := newAgent(t, sc.legitWear)
	srv := newServer(t, serve.Config{Workers: 2, Seed: serveSeed})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client, err := serve.DialServer(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	req := serve.Request{WearableAddr: agent.Addr(), RNGSeed: serveSeed}
	s, err := client.OpenStream(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Send(sc.legitVA[:4096]); err != nil {
		t.Fatal(err)
	}
	if got := client.InFlight(); got != 1 {
		t.Fatalf("in-flight %d before abort, want 1", got)
	}
	s.Abort()
	if got := client.InFlight(); got != 0 {
		t.Fatalf("in-flight %d after abort, want 0 — stream id leaked", got)
	}
	s.Abort() // idempotent

	// The connection must survive the server's late verdict for the
	// aborted stream: a full session on the same client still works.
	v, err := client.Inspect(serve.Request{
		WearableAddr: agent.Addr(), VARecording: sc.legitVA, RNGSeed: serveSeed,
	})
	if err != nil {
		t.Fatalf("connection unusable after abort: %v", err)
	}
	if v.Attack {
		t.Fatal("legitimate session flagged after abort")
	}
	if got := client.InFlight(); got != 0 {
		t.Fatalf("in-flight %d after follow-up session, want 0", got)
	}
}
