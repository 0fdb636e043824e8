package faults_test

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"vibguard/internal/acoustics"
	"vibguard/internal/core"
	"vibguard/internal/detector"
	"vibguard/internal/device"
	"vibguard/internal/faults"
	"vibguard/internal/phoneme"
	"vibguard/internal/segment"
	"vibguard/internal/selection"
	"vibguard/internal/syncnet"
)

// The fault-matrix suite runs the real end-to-end pipeline — wearable agent
// over TCP, hardened client with retry/backoff, full Inspect — under every
// (network fault x signal fault) combination with fixed seeds. Every cell
// must produce either the correct verdict or one of the typed errors; never
// a panic, never a NaN score. All randomness is seeded, so the suite is
// deterministic under -race and arbitrary scheduling.

const matrixSeed = 1013

// matrixScenario is one synthesized command heard by the VA device and the
// wearable, built once and shared read-only across all cells.
type matrixScenario struct {
	defense    *core.Defense
	legitVA    []float64
	legitWear  []float64
	attackVA   []float64
	attackWear []float64
}

var (
	scenarioOnce sync.Once
	scenario     *matrixScenario
	scenarioErr  error
)

func matrixScenarioFor(t *testing.T) *matrixScenario {
	t.Helper()
	scenarioOnce.Do(func() { scenario, scenarioErr = buildMatrixScenario() })
	if scenarioErr != nil {
		t.Fatal(scenarioErr)
	}
	return scenario
}

func buildMatrixScenario() (*matrixScenario, error) {
	rng := rand.New(rand.NewSource(matrixSeed))
	synth, err := phoneme.NewSynthesizer(phoneme.NewStudioVoicePool(1, matrixSeed)[0])
	if err != nil {
		return nil, err
	}
	utt, err := synth.Synthesize(phoneme.Commands()[1])
	if err != nil {
		return nil, err
	}
	spans := segment.OracleSpans(utt, selection.CanonicalSelected())
	room, err := acoustics.RoomByName("A")
	if err != nil {
		return nil, err
	}
	transmit := func(spl, dist float64, barrier bool) ([]float64, error) {
		return room.Transmit(utt.Samples, acoustics.PathConfig{
			SourceSPL: spl, DistanceM: dist, ThroughBarrier: barrier, SampleRate: 16000,
		}, rng)
	}
	legitVA, err := transmit(72, 1.5, false)
	if err != nil {
		return nil, err
	}
	legitNear, err := transmit(72, 0.3, false)
	if err != nil {
		return nil, err
	}
	attackVA, err := transmit(80, 2.1, true)
	if err != nil {
		return nil, err
	}
	attackNear, err := transmit(80, 2.4, true)
	if err != nil {
		return nil, err
	}
	d, err := core.NewDefense(core.DefaultConfig(device.NewFossilGen5(), &detector.StaticSegmenter{Spans: spans}))
	if err != nil {
		return nil, err
	}
	return &matrixScenario{
		defense:    d,
		legitVA:    legitVA,
		legitWear:  syncnet.SimulateNetworkDelay(legitNear, 0.1, 16000, rng),
		attackVA:   attackVA,
		attackWear: syncnet.SimulateNetworkDelay(attackNear, 0.08, 16000, rng),
	}, nil
}

// matrixPolicy keeps the retry backoff fast enough for a 36-cell matrix.
func matrixPolicy() syncnet.RetryPolicy {
	return syncnet.RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond, Multiplier: 2}
}

// runCell serves wear through a fresh agent, fetches it through a fresh
// hardened client dialing through the cell's fault injector, and inspects
// the result. It returns the transport or validation error as-is so the
// caller can classify it.
func runCell(t *testing.T, sc *matrixScenario, net faults.NetSpec, va, wear []float64, rngSeed int64) (*core.Verdict, error) {
	t.Helper()
	agent, err := syncnet.NewWearableAgent("127.0.0.1:0", func(uint64) ([]float64, error) { return wear, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = agent.Close() }()
	client, err := syncnet.NewReliableClient(agent.Addr(),
		syncnet.WithDialFunc(faults.NewInjector(net).WrapDial(nil)),
		syncnet.WithRetryPolicy(matrixPolicy()))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = client.Close() }()
	got, err := client.RequestRecording()
	if err != nil {
		return nil, err
	}
	return sc.defense.Inspect(va, got, rand.New(rand.NewSource(rngSeed)))
}

type netCase struct {
	name string
	spec faults.NetSpec
	// wantErr is non-nil for faults no retry policy can survive; it takes
	// precedence over the signal expectation because the recording never
	// arrives.
	wantErr error
}

type sigCase struct {
	name string
	spec faults.SignalSpec
	// wantErr is the typed validation error for fatal corruption; nil means
	// the pipeline must degrade gracefully to a verdict.
	wantErr error
	// wantAttack is the required verdict when wantErr is nil.
	wantAttack bool
}

func matrixNetCases() []netCase {
	return []netCase{
		{name: "clean", spec: faults.NetSpec{}},
		{name: "latency-jitter", spec: faults.NetSpec{Seed: 1, Latency: time.Millisecond, Jitter: 2 * time.Millisecond}},
		{name: "partial-reads", spec: faults.NetSpec{Seed: 2, ReadChunk: 61}},
		{name: "reset-then-recover", spec: faults.NetSpec{Seed: 3, ResetConnections: 1, ResetAfterBytes: 4096}},
		{name: "refuse-then-recover", spec: faults.NetSpec{Seed: 4, RefuseDials: 2}},
		{name: "blackhole", spec: faults.NetSpec{Seed: 5, ResetConnections: -1}, wantErr: syncnet.ErrRetriesExhausted},
	}
}

func matrixSigCases() []sigCase {
	return []sigCase{
		{name: "none", spec: faults.SignalSpec{Kind: faults.SignalNone, Seed: matrixSeed}},
		{name: "truncate", spec: faults.SignalSpec{Kind: faults.SignalTruncate, Seed: matrixSeed}, wantErr: core.ErrLengthMismatch},
		{name: "clip", spec: faults.SignalSpec{Kind: faults.SignalClip, Severity: 0.5, Seed: matrixSeed}},
		{name: "nonfinite", spec: faults.SignalSpec{Kind: faults.SignalNonFinite, Seed: matrixSeed}, wantErr: core.ErrNonFiniteRecording},
		{name: "dc-offset", spec: faults.SignalSpec{Kind: faults.SignalDCOffset, Severity: 0.2, Seed: matrixSeed}},
		{name: "rate-mismatch", spec: faults.SignalSpec{Kind: faults.SignalRateMismatch, Severity: 0.5, Seed: matrixSeed}, wantErr: core.ErrLengthMismatch},
	}
}

// TestFaultMatrix is the full (network x signal) grid on a legitimate
// command: 6 network faults x 6 signal faults, every cell end-to-end.
func TestFaultMatrix(t *testing.T) {
	sc := matrixScenarioFor(t)
	for ni, nc := range matrixNetCases() {
		for si, sgc := range matrixSigCases() {
			nc, sgc := nc, sgc
			cell := int64(ni*100 + si)
			t.Run(nc.name+"/"+sgc.name, func(t *testing.T) {
				wear := sgc.spec.Apply(sc.legitWear)
				v, err := runCell(t, sc, nc.spec, sc.legitVA, wear, faults.Mix(matrixSeed, cell))
				switch {
				case nc.wantErr != nil:
					if !errors.Is(err, nc.wantErr) {
						t.Fatalf("err = %v, want %v", err, nc.wantErr)
					}
				case sgc.wantErr != nil:
					if !errors.Is(err, sgc.wantErr) {
						t.Fatalf("err = %v, want %v", err, sgc.wantErr)
					}
					var issue *core.RecordingIssue
					if !errors.As(err, &issue) {
						t.Fatalf("err %v is not a *core.RecordingIssue", err)
					}
				default:
					if err != nil {
						t.Fatalf("cell should degrade gracefully, got %v", err)
					}
					if math.IsNaN(v.Score) || math.IsInf(v.Score, 0) {
						t.Fatalf("non-finite score %v", v.Score)
					}
					if v.Attack != sgc.wantAttack {
						t.Errorf("verdict attack=%v (score %v), want %v", v.Attack, v.Score, sgc.wantAttack)
					}
				}
			})
		}
	}
}

// TestFaultMatrixDetectsAttackUnderFaults verifies the injected faults do
// not mask a real thru-barrier attack: a degraded network and a survivable
// corruption must still yield an attack verdict.
func TestFaultMatrixDetectsAttackUnderFaults(t *testing.T) {
	sc := matrixScenarioFor(t)
	spec := faults.NetSpec{Seed: 6, ReadChunk: 61, RefuseDials: 1}
	wear := (faults.SignalSpec{Kind: faults.SignalDCOffset, Severity: 0.1, Seed: matrixSeed}).Apply(sc.attackWear)
	v, err := runCell(t, sc, spec, sc.attackVA, wear, faults.Mix(matrixSeed, 999))
	if err != nil {
		t.Fatal(err)
	}
	if !v.Attack {
		t.Errorf("thru-barrier attack not flagged under faults (score %v)", v.Score)
	}
	clean, err := runCell(t, sc, faults.NetSpec{}, sc.legitVA, sc.legitWear, faults.Mix(matrixSeed, 998))
	if err != nil {
		t.Fatal(err)
	}
	if clean.Attack {
		t.Errorf("legit command flagged on clean network (score %v)", clean.Score)
	}
	if clean.Score <= v.Score {
		t.Errorf("legit score %v not above attack score %v", clean.Score, v.Score)
	}
}

// TestFaultMatrixDeterministic pins the determinism contract: rerunning a
// fault-heavy cell with the same seeds reproduces the exact score bits,
// regardless of goroutine scheduling or TCP fragmentation.
func TestFaultMatrixDeterministic(t *testing.T) {
	sc := matrixScenarioFor(t)
	spec := faults.NetSpec{Seed: 7, ReadChunk: 127, ResetConnections: 1, ResetAfterBytes: 2048}
	wear := (faults.SignalSpec{Kind: faults.SignalDCOffset, Severity: 0.15, Seed: matrixSeed}).Apply(sc.legitWear)
	first, err := runCell(t, sc, spec, sc.legitVA, wear, faults.Mix(matrixSeed, 42))
	if err != nil {
		t.Fatal(err)
	}
	second, err := runCell(t, sc, spec, sc.legitVA, wear, faults.Mix(matrixSeed, 42))
	if err != nil {
		t.Fatal(err)
	}
	if first.Score != second.Score {
		t.Errorf("score not reproducible: %v vs %v", first.Score, second.Score)
	}
	if first.Attack != second.Attack || first.SyncOffset != second.SyncOffset {
		t.Errorf("verdict not reproducible: %+v vs %+v", first, second)
	}
}
