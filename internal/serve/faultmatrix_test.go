package serve_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"vibguard/internal/core"
	"vibguard/internal/faults"
	"vibguard/internal/obs"
	"vibguard/internal/serve"
	"vibguard/internal/syncnet"
)

// The server-side fault matrix: each wearable in the fleet sits behind a
// different internal/faults NetSpec (or misbehaves at the application /
// signal layer), all sessions run concurrently against one server, and
// every faulty session must fail with its expected typed error while the
// healthy sessions — sharing the same worker pool and admission queue —
// still complete with the correct verdicts.

// faultRouter is a syncnet.DialFunc that applies a per-wearable-address
// fault injector; addresses without an injector dial cleanly. It gives the
// server's single global Config.Dial per-wearable fault behavior.
type faultRouter struct {
	mu    sync.RWMutex
	dials map[string]syncnet.DialFunc
}

func newFaultRouter() *faultRouter {
	return &faultRouter{dials: make(map[string]syncnet.DialFunc)}
}

// fault wraps addr's dials with spec and returns addr for chaining.
func (r *faultRouter) fault(addr string, spec faults.NetSpec) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dials[addr] = faults.NewInjector(spec).WrapDial(nil)
	return addr
}

func (r *faultRouter) dialFunc() syncnet.DialFunc {
	return func(addr string, timeout time.Duration) (net.Conn, error) {
		r.mu.RLock()
		dial := r.dials[addr]
		r.mu.RUnlock()
		if dial == nil {
			return net.DialTimeout("tcp", addr, timeout)
		}
		return dial(addr, timeout)
	}
}

// serverFaultCase is one cell of the server fault matrix. Every cell is a
// single-wearable session (no WearableAddrs): a failure surfaces as its
// bare typed error, never wrapped in core.ErrNoQuorum, and a verdict is
// the in-process Inspect verdict under the session seed.
type serverFaultCase struct {
	name string
	// addr is the wearable this session talks to (set during setup).
	addr string
	// va is the VA-side recording submitted with the session.
	va []float64
	// wear is the recording a completing session's wearable serves.
	wear []float64
	// timeout, when set, is the caller's deadline for the session.
	timeout time.Duration
	// wantErr is nil for sessions that must complete; otherwise the typed
	// error the session must fail with (checked via errors.Is).
	wantErr error
	// wantWearableErr asserts the failure is a *syncnet.WearableError.
	wantWearableErr bool
	// wantAttack is the expected verdict for completing sessions.
	wantAttack bool
}

func TestServerFaultMatrix(t *testing.T) {
	sc := scenarioFor(t)
	router := newFaultRouter()

	// Application-layer failure: the wearable itself reports a sensor
	// error, which must surface as a WearableError without retries.
	failing, err := syncnet.NewWearableAgent("127.0.0.1:0", func(uint64) ([]float64, error) {
		return nil, fmt.Errorf("gyroscope offline")
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = failing.Close() })

	// Signal-layer failure: the wearable serves a recording corrupted with
	// non-finite samples, which pipeline validation must reject typed.
	corrupt := newAgent(t, faults.SignalSpec{Kind: faults.SignalNonFinite, Seed: serveSeed}.Apply(sc.legitWear))

	// A wearable that answers only after the session deadline.
	slow := newSlowAgent(t, sc.legitWear, 2*time.Second, nil)

	cases := []*serverFaultCase{
		{
			name:       "healthy legit",
			addr:       newAgent(t, sc.legitWear).Addr(),
			va:         sc.legitVA,
			wear:       sc.legitWear,
			wantAttack: false,
		},
		{
			name:       "healthy attack",
			addr:       newAgent(t, sc.attackWear).Addr(),
			va:         sc.attackVA,
			wear:       sc.attackWear,
			wantAttack: true,
		},
		{
			name: "latency and jitter",
			addr: router.fault(newAgent(t, sc.legitWear).Addr(),
				faults.NetSpec{Seed: faults.Mix(serveSeed, 1), Latency: 2 * time.Millisecond, Jitter: 3 * time.Millisecond}),
			va:         sc.legitVA,
			wear:       sc.legitWear,
			wantAttack: false,
		},
		{
			name: "partial reads",
			addr: router.fault(newAgent(t, sc.attackWear).Addr(),
				faults.NetSpec{Seed: faults.Mix(serveSeed, 2), ReadChunk: 61}),
			va:         sc.attackVA,
			wear:       sc.attackWear,
			wantAttack: true,
		},
		{
			name: "reset then recover",
			addr: router.fault(newAgent(t, sc.legitWear).Addr(),
				faults.NetSpec{Seed: faults.Mix(serveSeed, 3), ResetConnections: 1, ResetAfterBytes: 4096}),
			va:         sc.legitVA,
			wear:       sc.legitWear,
			wantAttack: false,
		},
		{
			name: "black hole",
			addr: router.fault(newAgent(t, sc.legitWear).Addr(),
				faults.NetSpec{Seed: faults.Mix(serveSeed, 4), ResetConnections: -1, ResetAfterBytes: 1024}),
			va:      sc.legitVA,
			wantErr: syncnet.ErrRetriesExhausted,
		},
		{
			name: "refused dials",
			addr: router.fault(newAgent(t, sc.legitWear).Addr(),
				faults.NetSpec{Seed: faults.Mix(serveSeed, 5), RefuseDials: 1 << 20}),
			va:      sc.legitVA,
			wantErr: syncnet.ErrRetriesExhausted,
		},
		{
			name:    "dead address",
			addr:    deadAddr(t),
			va:      sc.legitVA,
			wantErr: syncnet.ErrRetriesExhausted,
		},
		{
			name:            "wearable sensor error",
			addr:            failing.Addr(),
			va:              sc.legitVA,
			wantWearableErr: true,
		},
		{
			name:    "corrupted recording",
			addr:    corrupt.Addr(),
			va:      sc.legitVA,
			wantErr: core.ErrNonFiniteRecording,
		},
		{
			name:    "deadline during fetch",
			addr:    slow,
			va:      sc.legitVA,
			timeout: 500 * time.Millisecond,
			wantErr: serve.ErrSessionTimeout,
		},
	}

	srv := newServer(t, serve.Config{
		Workers:        4,
		QueueDepth:     len(cases),
		SessionTimeout: time.Minute,
		Seed:           serveSeed,
		Dial:           router.dialFunc(),
	})

	type outcome struct {
		verdict *core.Verdict
		err     error
	}
	fusionDevices := obs.Default().Histogram("fusion.devices")
	fusedBefore := fusionDevices.Count()
	results := make([]outcome, len(cases))
	var wg sync.WaitGroup
	for i, c := range cases {
		wg.Add(1)
		go func(i int, c *serverFaultCase) {
			defer wg.Done()
			timeout := c.timeout
			if timeout == 0 {
				timeout = time.Minute
			}
			ctx, cancel := contextWithTimeout(timeout)
			defer cancel()
			v, err := srv.Submit(ctx, serve.Request{
				WearableAddr: c.addr,
				VARecording:  c.va,
				RNGSeed:      serve.SessionSeed(serveSeed, uint64(2000+i)),
			})
			results[i] = outcome{verdict: v, err: err}
		}(i, c)
	}
	wg.Wait()
	if n := fusionDevices.Count() - fusedBefore; n != 0 {
		t.Errorf("single-wearable sessions recorded %d fusion.devices observations, want 0", n)
	}
	defense, err := sc.defenseFactory()()
	if err != nil {
		t.Fatal(err)
	}

	for i, c := range cases {
		res := results[i]
		if errors.Is(res.err, core.ErrNoQuorum) {
			t.Errorf("%s: err = %v, a single-wearable error wrapped in ErrNoQuorum", c.name, res.err)
		}
		switch {
		case c.wantWearableErr:
			var wearErr *syncnet.WearableError
			if !errors.As(res.err, &wearErr) {
				t.Errorf("%s: err = %v, want *syncnet.WearableError", c.name, res.err)
			}
		case c.wantErr != nil:
			if !errors.Is(res.err, c.wantErr) {
				t.Errorf("%s: err = %v, want %v", c.name, res.err, c.wantErr)
			}
			if c.wantErr == core.ErrNonFiniteRecording {
				var issue *core.RecordingIssue
				if !errors.As(res.err, &issue) {
					t.Errorf("%s: err = %v, want a *core.RecordingIssue wrapper", c.name, res.err)
				}
			}
		default:
			if res.err != nil {
				t.Errorf("%s: session failed (%v) despite a survivable fault", c.name, res.err)
				continue
			}
			if res.verdict.Attack != c.wantAttack {
				t.Errorf("%s: attack = %v (score %v), want %v",
					c.name, res.verdict.Attack, res.verdict.Score, c.wantAttack)
			}
			want, err := defense.Inspect(c.va, c.wear, rand.New(rand.NewSource(serve.SessionSeed(serveSeed, uint64(2000+i)))))
			if err != nil {
				t.Fatalf("%s: in-process Inspect: %v", c.name, err)
			}
			if math.Float64bits(res.verdict.Score) != math.Float64bits(want.Score) ||
				res.verdict.Attack != want.Attack || res.verdict.SyncOffset != want.SyncOffset {
				t.Errorf("%s: served verdict %+v, in-process Inspect %+v", c.name, res.verdict, want)
			}
		}
	}
}

// TestServerFaultMatrixOverWire repeats the terminal fault cells through
// the TCP front-end: the wire protocol must carry the typed errors intact
// (errors.Is still matches on the client side) while a healthy session on
// the same server completes.
func TestServerFaultMatrixOverWire(t *testing.T) {
	sc := scenarioFor(t)
	router := newFaultRouter()
	healthy := newAgent(t, sc.legitWear)
	blackholed := router.fault(newAgent(t, sc.legitWear).Addr(),
		faults.NetSpec{Seed: faults.Mix(serveSeed, 6), ResetConnections: -1, ResetAfterBytes: 512})
	failing, err := syncnet.NewWearableAgent("127.0.0.1:0", func(uint64) ([]float64, error) {
		return nil, fmt.Errorf("battery empty")
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = failing.Close() })

	srv := newServer(t, serve.Config{
		Workers:        2,
		QueueDepth:     4,
		SessionTimeout: time.Minute,
		Seed:           serveSeed,
		Dial:           router.dialFunc(),
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client, err := serve.DialServer(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = client.Close() }()

	if _, err := client.Inspect(serve.Request{WearableAddr: blackholed, VARecording: sc.legitVA}); !errors.Is(err, syncnet.ErrRetriesExhausted) {
		t.Errorf("black hole over wire: err = %v, want ErrRetriesExhausted", err)
	}
	var wearErr *syncnet.WearableError
	if _, err := client.Inspect(serve.Request{WearableAddr: failing.Addr(), VARecording: sc.legitVA}); !errors.As(err, &wearErr) {
		t.Errorf("wearable error over wire: err = %v, want *syncnet.WearableError", err)
	}
	v, err := client.Inspect(serve.Request{
		WearableAddr: healthy.Addr(),
		VARecording:  sc.legitVA,
		RNGSeed:      serve.SessionSeed(serveSeed, 3000),
	})
	if err != nil {
		t.Fatalf("healthy session after faulty neighbors: %v", err)
	}
	if v.Attack {
		t.Errorf("healthy legit session flagged as attack (score %v)", v.Score)
	}
}
