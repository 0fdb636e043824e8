package eval

import (
	"runtime"
	"sync"
	"testing"

	"vibguard/internal/attack"
	"vibguard/internal/detector"
	"vibguard/internal/device"
	"vibguard/internal/selection"
	"vibguard/internal/sensing"
)

// mixedSamples flattens a small dataset into one slice covering both
// classes, so equivalence checks exercise legit and attack paths.
func mixedSamples(t *testing.T) []*Sample {
	t.Helper()
	ds := smallDataset(t)
	out := append([]*Sample{}, ds.Legit...)
	out = append(out, ds.Attacks[attack.Replay]...)
	out = append(out, ds.Attacks[attack.HiddenVoice]...)
	return out
}

// TestParallelMatchesSequential is the determinism proof the engine is
// built around: the score vector must be bit-identical for every worker
// count to the one-worker run, which scores the samples in index order.
func TestParallelMatchesSequential(t *testing.T) {
	samples := mixedSamples(t)
	provider := &OracleProvider{Selected: selection.CanonicalSelected()}
	w := device.NewFossilGen5()
	const seed = 7

	serial, err := NewParallelScorer(detector.MethodFull, w, provider, seed, Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	want, err := serial.ScoreAll(samples)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 8} {
		ps, err := NewParallelScorer(detector.MethodFull, w, provider, seed, Workers(workers))
		if err != nil {
			t.Fatal(err)
		}
		if ps.Workers() != workers {
			t.Fatalf("workers = %d, want %d", ps.Workers(), workers)
		}
		got, err := ps.ScoreAll(samples)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%d workers: %d scores, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%d workers: sample %d score %v != sequential %v",
					workers, i, got[i], want[i])
			}
		}
	}
}

// TestParallelEquivalenceAllMethods repeats the determinism check for the
// two baseline arms, which share the engine but skip the span provider.
func TestParallelEquivalenceAllMethods(t *testing.T) {
	samples := mixedSamples(t)
	w := device.NewFossilGen5()
	provider := &OracleProvider{Selected: selection.CanonicalSelected()}
	for _, method := range MethodArms() {
		serial, err := NewParallelScorer(method, w, provider, 3, Workers(1))
		if err != nil {
			t.Fatal(err)
		}
		want, err := serial.ScoreAll(samples)
		if err != nil {
			t.Fatal(err)
		}
		ps, err := NewParallelScorer(method, w, provider, 3, Workers(4))
		if err != nil {
			t.Fatal(err)
		}
		got, err := ps.ScoreAll(samples)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%v: sample %d parallel %v != sequential %v", method, i, got[i], want[i])
			}
		}
	}
}

// TestParallelOverlappingSlices drives one ParallelScorer from several
// goroutines over overlapping sample slices at once. Run under -race this
// proves the engine shares no mutable state across ScoreAll calls.
func TestParallelOverlappingSlices(t *testing.T) {
	samples := mixedSamples(t)
	provider := &OracleProvider{Selected: selection.CanonicalSelected()}
	ps, err := NewParallelScorer(detector.MethodFull, device.NewFossilGen5(), provider, 11, Workers(4))
	if err != nil {
		t.Fatal(err)
	}
	slices := [][]*Sample{
		samples,
		samples[:len(samples)/2+2],
		samples[len(samples)/3:],
	}
	results := make([][]float64, len(slices))
	var wg sync.WaitGroup
	errs := make([]error, len(slices))
	for i, sl := range slices {
		wg.Add(1)
		go func(i int, sl []*Sample) {
			defer wg.Done()
			results[i], errs[i] = ps.ScoreAll(sl)
		}(i, sl)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("slice %d: %v", i, err)
		}
		if len(results[i]) != len(slices[i]) {
			t.Fatalf("slice %d: %d scores for %d samples", i, len(results[i]), len(slices[i]))
		}
	}
	// Index-determinism across overlapping calls: position i of any call
	// must match position i of the full slice's result wherever the same
	// sample sits at the same index.
	for i := range slices[1] {
		if results[1][i] != results[0][i] {
			t.Errorf("prefix slice diverged at %d: %v != %v", i, results[1][i], results[0][i])
		}
	}
}

// TestParallelScorerErrors covers construction validation and in-flight
// scoring errors (a MethodFull provider failure must surface, not hang).
func TestParallelScorerErrors(t *testing.T) {
	if _, err := NewParallelScorer(detector.MethodFull, device.NewFossilGen5(), nil, 1); err == nil {
		t.Error("full method without provider should error")
	}
	if _, err := NewParallelScorer(detector.MethodVibration, nil, nil, 1); err == nil {
		t.Error("vibration method without wearable should error")
	}
	provider := &OracleProvider{Selected: selection.CanonicalSelected()}
	ps, err := NewParallelScorer(detector.MethodFull, device.NewFossilGen5(), provider, 1, Workers(2))
	if err != nil {
		t.Fatal(err)
	}
	// A sample without an utterance makes OracleProvider fail.
	ds := smallDataset(t)
	bad := append([]*Sample{}, ds.Legit...)
	bad = append(bad, &Sample{VARec: make([]float64, 8000), WearRec: make([]float64, 9000)})
	if _, err := ps.ScoreAll(bad); err == nil {
		t.Error("provider failure should propagate")
	}
	empty, err := ps.ScoreAll(nil)
	if err != nil || len(empty) != 0 {
		t.Errorf("empty input: scores %v, err %v", empty, err)
	}
}

// TestParallelOptions checks the sensing and sync options reach the
// workers' Defense instances (via observable score changes).
func TestParallelOptions(t *testing.T) {
	ds := smallDataset(t)
	provider := &OracleProvider{Selected: selection.CanonicalSelected()}
	w := device.NewFossilGen5()
	base, err := NewParallelScorer(detector.MethodFull, w, provider, 5, Workers(2))
	if err != nil {
		t.Fatal(err)
	}
	mutated, err := NewParallelScorer(detector.MethodFull, w, provider, 5, Workers(2),
		WithSensing(func(c *sensing.Config) { c.FFTSize = 32; c.HopSize = 8 }))
	if err != nil {
		t.Fatal(err)
	}
	a, err := base.ScoreAll(ds.Legit[:2])
	if err != nil {
		t.Fatal(err)
	}
	b, err := mutated.ScoreAll(ds.Legit[:2])
	if err != nil {
		t.Fatal(err)
	}
	if a[0] == b[0] && a[1] == b[1] {
		t.Error("sensing mutation had no effect on scores")
	}
	// Invalid sensing mutations must fail at construction.
	if _, err := NewParallelScorer(detector.MethodFull, w, provider, 5,
		WithSensing(func(c *sensing.Config) { c.FFTSize = 63 })); err == nil {
		t.Error("invalid sensing config should fail at construction")
	}
}

// TestSetDefaultWorkers checks the package-wide override used by
// cmd/benchgen's -workers flag.
func TestSetDefaultWorkers(t *testing.T) {
	defer SetDefaultWorkers(0)
	SetDefaultWorkers(3)
	provider := &OracleProvider{Selected: selection.CanonicalSelected()}
	ps, err := NewParallelScorer(detector.MethodFull, device.NewFossilGen5(), provider, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Workers() != 3 {
		t.Errorf("workers = %d, want default override 3", ps.Workers())
	}
	SetDefaultWorkers(0)
	ps, err = NewParallelScorer(detector.MethodFull, device.NewFossilGen5(), provider, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Workers() != runtime.GOMAXPROCS(0) {
		t.Errorf("workers = %d, want GOMAXPROCS %d", ps.Workers(), runtime.GOMAXPROCS(0))
	}
	// Explicit option beats the global default.
	SetDefaultWorkers(3)
	ps, err = NewParallelScorer(detector.MethodFull, device.NewFossilGen5(), provider, 1, Workers(5))
	if err != nil {
		t.Fatal(err)
	}
	if ps.Workers() != 5 {
		t.Errorf("workers = %d, want explicit 5", ps.Workers())
	}
}

// TestSampleSeedProperties guards the (seed, index) derivation: distinct
// indexes and distinct seeds must yield distinct streams, and the mapping
// must be pure.
func TestSampleSeedProperties(t *testing.T) {
	seen := map[int64]int{}
	for i := 0; i < 1000; i++ {
		s := SampleSeed(42, i)
		if prev, dup := seen[s]; dup {
			t.Fatalf("seed collision: indexes %d and %d both map to %d", prev, i, s)
		}
		seen[s] = i
	}
	if SampleSeed(1, 0) == SampleSeed(2, 0) {
		t.Error("different scorer seeds should derive different sample seeds")
	}
	if SampleSeed(9, 7) != SampleSeed(9, 7) {
		t.Error("derivation must be deterministic")
	}
}

// benchScoringSamples builds a fixed scoring workload once per benchmark
// binary run.
var benchScoringOnce sync.Once
var benchScoringSamples []*Sample

func scoringWorkload(b *testing.B) []*Sample {
	b.Helper()
	benchScoringOnce.Do(func() {
		ds, err := BuildDataset(DatasetConfig{
			Participants:    4,
			CommandsPerUser: 4,
			AttacksPerKind:  8,
			Kinds:           []attack.Kind{attack.Replay},
			Seed:            1,
		})
		if err != nil {
			b.Fatal(err)
		}
		benchScoringSamples = append(ds.Legit, ds.Attacks[attack.Replay]...)
	})
	return benchScoringSamples
}

// BenchmarkScoreAllSerial (one worker) / BenchmarkScoreAllParallel
// compare dataset scoring throughput; report samples/sec for direct
// comparison.
func BenchmarkScoreAllSerial(b *testing.B) { benchmarkScoreAllParallel(b, 1) }

func benchmarkScoreAllParallel(b *testing.B, workers int) {
	samples := scoringWorkload(b)
	provider := &OracleProvider{Selected: selection.CanonicalSelected()}
	ps, err := NewParallelScorer(detector.MethodFull, device.NewFossilGen5(), provider, 1, Workers(workers))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ps.ScoreAll(samples); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(samples)*b.N)/b.Elapsed().Seconds(), "samples/s")
}

func BenchmarkScoreAllParallel2(b *testing.B) { benchmarkScoreAllParallel(b, 2) }
func BenchmarkScoreAllParallel4(b *testing.B) { benchmarkScoreAllParallel(b, 4) }
func BenchmarkScoreAllParallelMax(b *testing.B) {
	benchmarkScoreAllParallel(b, runtime.GOMAXPROCS(0))
}
