package brnn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"vibguard/internal/cpuid"
)

// inferConfigs spans the architectures the equivalence suite pins: the
// paper config (64 units, 14 MFCCs), odd sizes that exercise the blocked
// kernel's tail loops, and a multi-class head.
func inferConfigs() []Config {
	return []Config{
		{InputDim: 14, HiddenDim: 64, NumClasses: 2, Seed: 1},
		{InputDim: 3, HiddenDim: 5, NumClasses: 2, Seed: 2},
		{InputDim: 7, HiddenDim: 33, NumClasses: 4, Seed: 3},
		{InputDim: 1, HiddenDim: 1, NumClasses: 2, Seed: 4},
	}
}

func randomInputs(T, dim int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, T)
	for t := range out {
		x := make([]float64, dim)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		out[t] = x
	}
	return out
}

// requireBitEqual fails unless the batched probabilities are bit-identical
// (==, not within tolerance) to the reference path's.
func requireBitEqual(t *testing.T, label string, want, got [][]float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d frames, want %d", label, len(got), len(want))
	}
	for f := range want {
		if len(want[f]) != len(got[f]) {
			t.Fatalf("%s: frame %d has %d classes, want %d", label, f, len(got[f]), len(want[f]))
		}
		for k := range want[f] {
			if want[f][k] != got[f][k] {
				t.Fatalf("%s: frame %d class %d: batched %v != reference %v",
					label, f, k, got[f][k], want[f][k])
			}
		}
	}
}

// TestInferenceMatchesReference pins the batched inference path
// bit-identical to the per-frame reference (Model.Forward) on seeded
// random models — the brnn analogue of the dspbench legacy-FFT pin.
func TestInferenceMatchesReference(t *testing.T) {
	for _, cfg := range inferConfigs() {
		for _, T := range []int{1, 2, 7, 50, 130} {
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			inputs := randomInputs(T, cfg.InputDim, int64(100*T)+cfg.Seed)
			want, err := m.Forward(inputs)
			if err != nil {
				t.Fatal(err)
			}
			inf := m.NewInference()
			got, err := inf.Forward(inputs)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("cfg %+v T=%d", cfg, T)
			requireBitEqual(t, label, want, got)

			wantPred, err := m.Predict(inputs)
			if err != nil {
				t.Fatal(err)
			}
			gotPred, err := inf.Predict(inputs, nil)
			if err != nil {
				t.Fatal(err)
			}
			for f := range wantPred {
				if wantPred[f] != gotPred[f] {
					t.Fatalf("%s: prediction %d differs", label, f)
				}
			}
		}
	}
}

// TestInferenceSessionReuse runs many different-length sequences through
// one session; every result must still match the reference, proving the
// scratch is fully re-initialized between calls.
func TestInferenceSessionReuse(t *testing.T) {
	cfg := Config{InputDim: 14, HiddenDim: 64, NumClasses: 2, Seed: 9}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inf := m.NewInference()
	for i, T := range []int{40, 3, 120, 1, 77, 40} {
		inputs := randomInputs(T, cfg.InputDim, int64(i)*17+1)
		want, err := m.Forward(inputs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := inf.Forward(inputs)
		if err != nil {
			t.Fatal(err)
		}
		requireBitEqual(t, fmt.Sprintf("call %d T=%d", i, T), want, got)
	}
}

// TestForwardBatchMatchesReference pins the multi-sequence batch entry
// point against per-sequence reference forwards, including mixed lengths,
// empty sequences, and unsorted length order.
func TestForwardBatchMatchesReference(t *testing.T) {
	cfg := Config{InputDim: 14, HiddenDim: 64, NumClasses: 2, Seed: 5}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lengths := []int{17, 80, 0, 80, 1, 44, 130, 2}
	seqs := make([][][]float64, len(lengths))
	for i, T := range lengths {
		seqs[i] = randomInputs(T, cfg.InputDim, int64(i)+500)
	}
	inf := m.NewInference()
	got, err := inf.ForwardBatch(seqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(seqs) {
		t.Fatalf("batch returned %d results, want %d", len(got), len(seqs))
	}
	for i, seq := range seqs {
		want, err := m.Forward(seq)
		if err != nil {
			t.Fatal(err)
		}
		if len(seq) == 0 {
			if got[i] != nil {
				t.Fatalf("seq %d: empty sequence should yield nil", i)
			}
			continue
		}
		requireBitEqual(t, fmt.Sprintf("batch seq %d T=%d", i, len(seq)), want, got[i])
	}

	// All-empty batch and empty batch.
	out, err := inf.ForwardBatch([][][]float64{nil, nil})
	if err != nil || len(out) != 2 || out[0] != nil || out[1] != nil {
		t.Fatalf("all-empty batch: %v, %v", out, err)
	}
	out, err = inf.ForwardBatch(nil)
	if err != nil || out != nil {
		t.Fatalf("empty batch: %v, %v", out, err)
	}
}

// TestInferenceErrors pins input validation on the batched path.
func TestInferenceErrors(t *testing.T) {
	m, err := New(Config{InputDim: 4, HiddenDim: 8, NumClasses: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	inf := m.NewInference()
	if _, err := inf.Forward([][]float64{{1, 2}}); err == nil {
		t.Error("wrong input dim should error")
	}
	if _, err := inf.ForwardBatch([][][]float64{randomInputs(3, 4, 1), {{1}}}); err == nil {
		t.Error("wrong dim in batch should error")
	}
	probs, err := inf.Forward(nil)
	if err != nil || probs != nil {
		t.Errorf("empty forward: %v, %v", probs, err)
	}
	// The session must still work after an error.
	inputs := randomInputs(5, 4, 2)
	want, err := m.Forward(inputs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := inf.Forward(inputs)
	if err != nil {
		t.Fatal(err)
	}
	requireBitEqual(t, "post-error call", want, got)
}

// TestInferenceZeroAlloc pins the steady-state allocation count of the
// batched forward at zero (the same pin style as the obs and dsp layers).
func TestInferenceZeroAlloc(t *testing.T) {
	m, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	inputs := randomInputs(100, 14, 42)
	inf := m.NewInference()
	var pred []int
	// Warm the scratch to steady state.
	if _, err := inf.Forward(inputs); err != nil {
		t.Fatal(err)
	}
	if pred, err = inf.Predict(inputs, pred); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := inf.Forward(inputs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Inference.Forward steady state allocates %v/op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(10, func() {
		var err error
		pred, err = inf.Predict(inputs, pred)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Inference.Predict steady state allocates %v/op, want 0", allocs)
	}
}

// TestConcurrentInferenceSessions hammers one read-only model from many
// goroutines, each with a private session (the serve-worker sharing
// pattern); run under -race by the CI brnn job.
func TestConcurrentInferenceSessions(t *testing.T) {
	cfg := Config{InputDim: 14, HiddenDim: 32, NumClasses: 2, Seed: 7}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inputs := randomInputs(60, cfg.InputDim, 11)
	want, err := m.Forward(inputs)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			inf := m.NewInference()
			for i := 0; i < 20; i++ {
				got, err := inf.Forward(inputs)
				if err != nil {
					errs <- err
					return
				}
				for f := range want {
					for k := range want[f] {
						if want[f][k] != got[f][k] {
							errs <- fmt.Errorf("concurrent session diverged at frame %d", f)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestGemmKernelsFollowCPUID pins the gemm dispatch to the module's one
// CPU check: on amd64 the AVX pair kernel leads the SSE2 one exactly where
// cpuid reports AVX; elsewhere the pure-Go kernel runs alone.
func TestGemmKernelsFollowCPUID(t *testing.T) {
	want := []string{"generic"}
	if runtime.GOARCH == "amd64" {
		want = []string{"sse2"}
		if avx, _ := cpuid.Features(); avx {
			want = []string{"avx", "sse2"}
		}
	}
	names := make([]string, len(gemmKernels))
	for i, kern := range gemmKernels {
		names[i] = kern.name
	}
	if !slices.Equal(names, want) {
		t.Fatalf("gemm kernels %v, want %v", names, want)
	}
}

// TestPackedGemmMatchesReference pins packNT/apply bit-identical to the
// pure-Go blocked kernel on every gemm kernel this CPU can run, across
// shapes that exercise block pairs, a pair plus a single block (r = 48),
// scalar tails, tiny matrices (no blocks at all), multi-row inputs, the
// deployed inference shapes (k = 14 and k = 32 at r = 128) and training's
// transposed shape (k = 128 at r = 32).
func TestPackedGemmMatchesReference(t *testing.T) {
	names := make([]string, len(gemmKernels))
	for i, kern := range gemmKernels {
		names[i] = kern.name
	}
	t.Logf("gemm kernels: %v", names)
	for _, kern := range gemmKernels {
		t.Run(kern.name, func(t *testing.T) {
			prev := gemmBlocks
			gemmBlocks = kern.run
			defer func() { gemmBlocks = prev }()
			rng := rand.New(rand.NewSource(77))
			for _, shape := range []struct{ n, k, r int }{
				{1, 64, 256}, {3, 14, 256}, {1, 5, 20}, {2, 33, 132},
				{1, 1, 4}, {7, 13, 16}, {4, 8, 15}, {1, 64, 17},
				{2, 9, 48}, {3, 7, 50}, {284, 14, 128}, {2, 32, 128},
				{32, 128, 32}, {1, 0, 32},
			} {
				w := NewMatrixRandom(shape.r, shape.k, rng)
				x := NewMatrixRandom(shape.n, shape.k, rng)
				want := make([]float64, shape.n*shape.r)
				got := make([]float64, shape.n*shape.r)
				for i := range got {
					got[i] = math.NaN()
				}
				gemmNT(want, x.Data, w.Data, shape.n, shape.k, shape.r)
				p := packNT(w.Data, shape.k, shape.r)
				p.apply(got, x.Data, shape.n)
				for i := range want {
					if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
						t.Fatalf("shape %+v: packed[%d] = %v, reference = %v",
							shape, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestMulMatMatchesMulVec pins the blocked matrix-matrix kernel
// bit-identical to MulVec row by row, across shapes that exercise the
// panel and 4-row tail paths.
func TestMulMatMatchesMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, shape := range []struct{ n, k, r int }{
		{1, 1, 1}, {3, 5, 7}, {10, 14, 256}, {5, 64, 256}, {2, 64, 2}, {9, 13, 130},
	} {
		w := NewMatrixRandom(shape.r, shape.k, rng)
		x := NewMatrixRandom(shape.n, shape.k, rng)
		out := NewMatrix(shape.n, shape.r)
		if err := w.MulMat(x, out); err != nil {
			t.Fatal(err)
		}
		want := make([]float64, shape.r)
		for i := 0; i < shape.n; i++ {
			if err := w.MulVec(x.Data[i*shape.k:(i+1)*shape.k], want); err != nil {
				t.Fatal(err)
			}
			for j := range want {
				if out.At(i, j) != want[j] {
					t.Fatalf("shape %+v: out(%d,%d) = %v, MulVec = %v",
						shape, i, j, out.At(i, j), want[j])
				}
			}
		}
	}
	// Shape validation.
	w := NewMatrix(4, 3)
	if err := w.MulMat(NewMatrix(2, 5), NewMatrix(2, 4)); err == nil {
		t.Error("mismatched inner dim should error")
	}
	if err := w.MulMat(NewMatrix(2, 3), NewMatrix(3, 4)); err == nil {
		t.Error("mismatched out rows should error")
	}
	if err := w.MulMat(NewMatrix(2, 3), NewMatrix(2, 5)); err == nil {
		t.Error("mismatched out cols should error")
	}
}
