package dsp_test

import (
	"math"
	"math/cmplx"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"vibguard/internal/cpuid"
	"vibguard/internal/dsp"
	"vibguard/internal/dsp/dspbench"
)

// TestKernelsFollowCPUID pins the transform dispatch to the module's one
// CPU check: the AVX kernel leads the list exactly where cpuid reports AVX.
func TestKernelsFollowCPUID(t *testing.T) {
	want := []string{"generic"}
	if avx, _ := cpuid.Features(); avx {
		want = []string{"avx", "generic"}
	}
	if got := dsp.KernelNames(); !slices.Equal(got, want) {
		t.Fatalf("kernels %v, want %v", got, want)
	}
}

func randomComplex(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func randomReal(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// maxMagnitude returns the largest |v| over a complex spectrum, used as the
// scale for relative-error comparisons.
func maxMagnitude(x []complex128) float64 {
	m := 0.0
	for _, v := range x {
		if a := cmplx.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// forEachKernel runs f once per butterfly kernel this CPU supports (AVX
// and the pure-Go loop on amd64 with AVX; the pure-Go loop elsewhere).
func forEachKernel(t *testing.T, f func(t *testing.T)) {
	for _, name := range dsp.KernelNames() {
		t.Run(name, func(t *testing.T) {
			defer dsp.UseKernel(name)()
			f(t)
		})
	}
}

// sameBits reports the first index where two complex slices differ in any
// bit (so -0 and +0 differ), or -1.
func sameBits(got, want []complex128) int {
	if len(got) != len(want) {
		return 0
	}
	for i := range want {
		if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
			math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
			return i
		}
	}
	return -1
}

// sameFloatBits is sameBits for real slices.
func sameFloatBits(got, want []float64) int {
	if len(got) != len(want) {
		return 0
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

// The planned complex transform fills its twiddle tables with the same
// recurrence the legacy per-call code evaluated inline, and every butterfly
// kernel rounds exactly like the scalar loop, so the outputs must be
// bit-identical — the property that keeps golden metrics stable across the
// engine swap. The sizes run up to the 65536/131072-point transforms of the
// replay stage, past the cache-blocking threshold.
func TestPlanBitIdenticalToLegacyFFT(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		for _, n := range []int{1, 2, 4, 8, 64, 256, 1024, 4096, 65536, 131072} {
			x := randomComplex(n, int64(n))
			x[0] = complex(math.Copysign(0, -1), 0) // a signed zero must survive
			p, err := dsp.PlanFFT(n)
			if err != nil {
				t.Fatal(err)
			}
			if i := sameBits(p.Forward(nil, x), dspbench.FFTLegacy(x)); i >= 0 {
				t.Fatalf("n=%d: forward differs from legacy at bin %d", n, i)
			}
			if i := sameBits(p.Inverse(nil, x), dspbench.IFFTLegacy(x)); i >= 0 {
				t.Fatalf("n=%d: inverse differs from legacy at bin %d", n, i)
			}
		}
	})
}

// Non-power-of-two spectra go through the planned Bluestein path, whose
// folded permutations and pooled scratch must reproduce the per-call
// chirp-z reference bit for bit. The power and magnitude spectra compute
// only the n/2+1 bins they return; each must carry the bits of the full
// legacy transform.
func TestBluesteinPowerSpectrumBitIdentical(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		for _, n := range []int{3, 5, 6, 100, 1000, 38880, 45040} {
			x := randomReal(n, int64(n)+500)
			want := dspbench.PowerSpectrumLegacy(x)
			if i := sameFloatBits(dsp.PowerSpectrum(x), want); i >= 0 {
				t.Fatalf("n=%d: power differs from legacy at bin %d", n, i)
			}
			for k := range want {
				want[k] = math.Sqrt(want[k])
			}
			if i := sameFloatBits(dsp.MagnitudeSpectrum(x), want); i >= 0 {
				t.Fatalf("n=%d: magnitude differs from legacy at bin %d", n, i)
			}
		}
	})
}

// Non-finite inputs only pin NaN-ness: NaN payloads may legitimately differ
// between kernels (x86 keeps the payload of the first NaN operand, and
// neither the compiler nor the kernel fixes the operand order of a
// commutative add or multiply), and the pipeline rejects non-finite
// recordings before any transform. Every value
// that is not NaN must still match exactly.
func TestPlanNonFiniteInputsMatchLegacyNaNness(t *testing.T) {
	same := func(got, want float64) bool {
		if math.IsNaN(want) || math.IsNaN(got) {
			return math.IsNaN(want) == math.IsNaN(got)
		}
		return math.Float64bits(got) == math.Float64bits(want)
	}
	forEachKernel(t, func(t *testing.T) {
		for _, n := range []int{64, 1000, 4096} {
			x := randomComplex(n, int64(n)+700)
			x[3] = complex(math.NaN(), 0)
			x[n/2] = complex(math.Inf(1), 1)
			x[n-1] = complex(2, math.Inf(-1))
			if p, err := dsp.PlanFFT(n); err == nil {
				got, want := p.Forward(nil, x), dspbench.FFTLegacy(x)
				for i := range want {
					if !same(real(got[i]), real(want[i])) || !same(imag(got[i]), imag(want[i])) {
						t.Fatalf("n=%d bin %d: %v, legacy %v", n, i, got[i], want[i])
					}
				}
			}
			r := randomReal(n, int64(n)+800)
			r[5] = math.Inf(1)
			gotP, wantP := dsp.PowerSpectrum(r), dspbench.PowerSpectrumLegacy(r)
			if len(gotP) != len(wantP) {
				t.Fatalf("n=%d: %d power bins, legacy %d", n, len(gotP), len(wantP))
			}
			if n&(n-1) != 0 { // the packed real path is only tolerance-pinned
				for k := range wantP {
					if !same(gotP[k], wantP[k]) {
						t.Fatalf("n=%d power bin %d: %v, legacy %v", n, k, gotP[k], wantP[k])
					}
				}
			}
		}
	})
}

// Regression: the Bluestein cache used to keep one multi-megabyte plan per
// distinct length forever. Driving many distinct lengths through it must
// leave at most the bound's number of recent plans, the bound must follow
// GOMAXPROCS down as well as up, and a plan rebuilt after eviction must
// give bit-identical output.
func TestBluesteinCacheBounded(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	first := randomReal(999, 900)
	want := dsp.PowerSpectrum(first)
	drive := func(lengths int) {
		t.Helper()
		size := dsp.BluesteinCacheSize()
		for i := 0; i < lengths; i++ {
			n := 1001 + 2*i // distinct odd lengths
			dsp.PowerSpectrum(randomReal(n, int64(n)))
			if got := dsp.BluesteinCacheLen(); got > size {
				t.Fatalf("after length %d: %d cached Bluestein plans, bound %d", n, got, size)
			}
		}
		if got := dsp.BluesteinCacheLen(); got != size {
			t.Fatalf("%d cached Bluestein plans after %d lengths, want the bound %d", got, lengths, size)
		}
	}
	if size := dsp.BluesteinCacheSize(); size != 16 {
		t.Fatalf("bound %d at GOMAXPROCS 8, want 16", size)
	}
	drive(64)
	runtime.GOMAXPROCS(1)
	if size := dsp.BluesteinCacheSize(); size != 4 {
		t.Fatalf("bound %d at GOMAXPROCS 1, want 4", size)
	}
	drive(1)
	if i := sameFloatBits(dsp.PowerSpectrum(first), want); i >= 0 {
		t.Fatalf("rebuilt plan differs at bin %d", i)
	}
}

// The packed real transform takes a different (half-length) route through
// the butterflies, so its power spectrum is pinned within 1e-9 relative
// error of the full complex transform's rather than bit-exactly, down to
// the one- and two-point plans.
func TestRealPlanMatchesComplexTransform(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 64, 512, 4096} {
		x := randomReal(n, int64(n)+100)
		p, err := dsp.PlanRealFFT(n)
		if err != nil {
			t.Fatal(err)
		}
		got := p.PowerInto(nil, x, nil)
		want := dspbench.PowerSpectrumLegacy(x)
		if len(got) != n/2+1 {
			t.Fatalf("n=%d: %d bins, want %d", n, len(got), n/2+1)
		}
		if d := relDev(got, want); !(d <= 1e-9) {
			t.Fatalf("n=%d: packed power spectrum deviates %.3g of its largest bin", n, d)
		}
	}
}

func TestPowerAndMagnitudeSpectrumMatchLegacy(t *testing.T) {
	for _, n := range []int{2, 64, 512, 2048} {
		x := randomReal(n, int64(n)+300)
		gotP := dsp.PowerSpectrum(x)
		wantP := dspbench.PowerSpectrumLegacy(x)
		scale := 0.0
		for _, v := range wantP {
			if v > scale {
				scale = v
			}
		}
		if scale == 0 {
			scale = 1
		}
		for k := range wantP {
			if math.Abs(gotP[k]-wantP[k]) > 1e-9*scale {
				t.Fatalf("n=%d bin %d: power %v, legacy %v", n, k, gotP[k], wantP[k])
			}
		}
		gotM := dsp.MagnitudeSpectrum(x)
		for k := range wantP {
			want := math.Sqrt(wantP[k])
			if math.Abs(gotM[k]-want) > 1e-9*math.Sqrt(scale) {
				t.Fatalf("n=%d bin %d: magnitude %v, legacy %v", n, k, gotM[k], want)
			}
		}
	}
}

func TestSTFTMatchesLegacy(t *testing.T) {
	cases := []struct {
		n    int
		cfg  dsp.STFTConfig
		name string
	}{
		{4800, dsp.STFTConfig{FFTSize: 64, HopSize: 16, SampleRate: 200}, "vibration"},
		{16000, dsp.STFTConfig{FFTSize: 512, HopSize: 160, SampleRate: 16000}, "audio"},
		{100, dsp.STFTConfig{FFTSize: 256, SampleRate: 200}, "zero-padded single frame"},
		{700, dsp.STFTConfig{FFTSize: 64, HopSize: 200, SampleRate: 200}, "hop larger than window"},
		{64, dsp.STFTConfig{FFTSize: 64, HopSize: 16, SampleRate: 200, Window: dsp.WindowBlackman}, "exact one window"},
	}
	for _, tc := range cases {
		x := randomReal(tc.n, int64(tc.n))
		got, err := dsp.STFT(x, tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, err := dspbench.STFTLegacy(x, tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got.NumFrames() != want.NumFrames() || got.NumBins() != want.NumBins() {
			t.Fatalf("%s: shape %dx%d, want %dx%d", tc.name,
				got.NumFrames(), got.NumBins(), want.NumFrames(), want.NumBins())
		}
		scale := want.MaxValue()
		if scale == 0 {
			scale = 1
		}
		for f, row := range want.Power {
			for k, w := range row {
				if math.Abs(got.Power[f][k]-w) > 1e-9*scale {
					t.Fatalf("%s: frame %d bin %d: %v, want %v", tc.name, f, k, got.Power[f][k], w)
				}
			}
		}
	}
}

func TestPlanCacheReturnsSharedInstance(t *testing.T) {
	p1, err := dsp.PlanFFT(128)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := dsp.PlanFFT(128)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("PlanFFT(128) built two instances for one size")
	}
	r1, err := dsp.PlanRealFFT(128)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := dsp.PlanRealFFT(128)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("PlanRealFFT(128) built two instances for one size")
	}
}

func TestPlanRejectsInvalidLengths(t *testing.T) {
	for _, n := range []int{0, -4, 3, 100} {
		if _, err := dsp.PlanFFT(n); err == nil {
			t.Errorf("PlanFFT(%d) = nil error", n)
		}
		if _, err := dsp.PlanRealFFT(n); err == nil {
			t.Errorf("PlanRealFFT(%d) = nil error", n)
		}
	}
}

func TestPlanForwardInPlaceAliasing(t *testing.T) {
	x := randomComplex(256, 7)
	p, err := dsp.PlanFFT(256)
	if err != nil {
		t.Fatal(err)
	}
	want := p.Forward(nil, x)
	buf := make([]complex128, 256)
	copy(buf, x)
	got := p.Forward(buf, buf) // dst aliases src: transform in place
	if &got[0] != &buf[0] {
		t.Fatal("aliased Forward reallocated its destination")
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bin %d: in-place %v != out-of-place %v", i, got[i], want[i])
		}
	}
	p.Inverse(buf, buf)
	for i := range x {
		if cmplx.Abs(buf[i]-x[i]) > 1e-9 {
			t.Fatalf("roundtrip[%d] = %v, want %v", i, buf[i], x[i])
		}
	}
}

// Reused destination and scratch buffers make planned transforms
// allocation-free — the property the STFT and MFCC hot loops rely on.
func TestPlanReusedBuffersAllocationFree(t *testing.T) {
	p, err := dsp.PlanFFT(512)
	if err != nil {
		t.Fatal(err)
	}
	src := randomComplex(512, 8)
	dst := make([]complex128, 512)
	if avg := testing.AllocsPerRun(50, func() { p.Forward(dst, src) }); avg != 0 {
		t.Errorf("planned Forward with reused dst: %.1f allocs/op, want 0", avg)
	}
	rp, err := dsp.PlanRealFFT(512)
	if err != nil {
		t.Fatal(err)
	}
	x := randomReal(512, 9)
	power := make([]float64, rp.NumBins())
	scratch := rp.Scratch()
	if avg := testing.AllocsPerRun(50, func() { rp.PowerInto(power, x, scratch) }); avg != 0 {
		t.Errorf("PowerInto with reused buffers: %.1f allocs/op, want 0", avg)
	}
}

// STFT's per-call allocation count must stay O(1) in the frame count: one
// contiguous backing array plus a handful of fixed buffers, never per-frame
// garbage. 300 frames in, a small constant out.
func TestSTFTConstantAllocations(t *testing.T) {
	x := randomReal(4800, 10)
	cfg := dsp.STFTConfig{FFTSize: 64, HopSize: 16, SampleRate: 200}
	// Warm the plan and window caches so the steady state is measured.
	if _, err := dsp.STFT(x, cfg); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(20, func() {
		if _, err := dsp.STFT(x, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 8 {
		t.Errorf("STFT allocates %.1f times per call for 298 frames, want <= 8", avg)
	}
}

// Plans are shared, immutable state; hammer one from many goroutines (the
// ParallelScorer pattern) and check every result. Run under -race in CI.
func TestPlanConcurrentUse(t *testing.T) {
	const workers = 8
	x := randomReal(1024, 11)
	want := dsp.PowerSpectrum(x)
	cfg := dsp.STFTConfig{FFTSize: 64, HopSize: 16, SampleRate: 200}
	wantSpec, err := dsp.STFT(x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var oddInputs, oddWant [][]float64
	for n := 301; n < 301+2*(dsp.BluesteinCacheSize()+3); n += 2 {
		x := randomReal(n, int64(n))
		oddInputs = append(oddInputs, x)
		oddWant = append(oddWant, dsp.PowerSpectrum(x))
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 25; iter++ {
				got := dsp.PowerSpectrum(x)
				for k := range want {
					if got[k] != want[k] {
						errs <- errMismatch
						return
					}
				}
				// Distinct non-power-of-two lengths per worker keep the
				// bounded Bluestein cache evicting under contention.
				odd := oddInputs[(w+iter)%len(oddInputs)]
				gotOdd := dsp.PowerSpectrum(odd)
				for k, v := range oddWant[(w+iter)%len(oddInputs)] {
					if gotOdd[k] != v {
						errs <- errMismatch
						return
					}
				}
				spec, err := dsp.STFT(x, cfg)
				if err != nil {
					errs <- err
					return
				}
				for f := range wantSpec.Power {
					for k := range wantSpec.Power[f] {
						if spec.Power[f][k] != wantSpec.Power[f][k] {
							errs <- errMismatch
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
		t.Fatal(err)
	}
}

var errMismatch = errMismatchType{}

type errMismatchType struct{}

func (errMismatchType) Error() string { return "concurrent transform produced a different result" }
