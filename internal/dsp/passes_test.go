package dsp

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The passes around the butterflies (shapeHalf's unpack, gain and power
// sums, inverseInto's re-pack and scaled copy, the decimation fold, the
// delay search's per-bin product, MaxAbs and the speaker's cubic) run on
// every kernel of this CPU and must give the generic Go loops' bits; the
// layout the transforms leave holds them all. Only
// NaN-ness is pinned for NaN: its payload and sign follow operand order,
// which neither the compiler nor the kernels fix.

// sameValue reports whether got carries want's bits, or both are NaN.
func sameValue(got, want float64) bool {
	if math.IsNaN(got) || math.IsNaN(want) {
		return math.IsNaN(got) && math.IsNaN(want)
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

// firstDiff returns the first index where got and want differ (see
// sameValue), or -1.
func firstDiff(got, want []float64) int {
	if len(got) != len(want) {
		return 0
	}
	for i := range want {
		if !sameValue(got[i], want[i]) {
			return i
		}
	}
	return -1
}

// passSizes are the transform lengths m = 2 .. 262,144.
func passSizes() []int {
	var sizes []int
	for m := 2; m <= 1<<18; m <<= 1 {
		sizes = append(sizes, m)
	}
	return sizes
}

// passSpectra returns the h-entry spectra the per-bin passes run on: a
// seeded normal one, the same with NaN, ±Inf, -0 and subnormal entries
// scattered through it, the all-zero one, and one of zeros of random sign,
// on which the ·0 terms of Go's complex products decide every sign.
func passSpectra(h int, seed int64) map[string][]complex128 {
	rng := rand.New(rand.NewSource(seed))
	clean, signed := make([]complex128, h), make([]complex128, h)
	for i := range clean {
		clean[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		signed[i] = complex(math.Copysign(0, rng.Float64()-0.5), math.Copysign(0, rng.Float64()-0.5))
	}
	special := slices.Clone(clean)
	odd := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 5e-324, -2.5e-310, math.SmallestNonzeroFloat64 * 3}
	for i := range special {
		if rng.Intn(16) == 0 || i < 3 || i > h-4 {
			special[i] = complex(odd[rng.Intn(len(odd))], odd[rng.Intn(len(odd))])
		}
	}
	return map[string][]complex128{"clean": clean, "special": special, "zero": make([]complex128, h), "signed zeros": signed}
}

// onKernels runs f for every kernel of this CPU that is not the generic
// one, with that kernel switched in.
func onKernels(t *testing.T, f func(t *testing.T)) {
	for _, k := range kernels {
		if k.name == generic.name {
			continue
		}
		t.Run(k.name, func(t *testing.T) {
			prev := kern
			kern = k
			defer func() { kern = prev }()
			f(t)
		})
	}
}

// withGeneric runs f on the generic kernel.
func withGeneric(f func()) {
	prev := kern
	kern = generic
	defer func() { kern = prev }()
	f()
}

func TestReplayPassesBitIdentical(t *testing.T) {
	onKernels(t, func(t *testing.T) {
		for _, m := range passSizes() {
			p := mustPlanRealFFT(m)
			h := m / 2
			g := make([]float64, h+1)
			rng := rand.New(rand.NewSource(int64(m)))
			for k := range g {
				g[k] = rng.Float64() * 2
			}
			g[h/2] = 0
			for name, y := range passSpectra(h, int64(m)+1) {
				for _, cut := range []int{-1, 0, 1, h / 2, h, h + 3} {
					want, got := slices.Clone(y), slices.Clone(y)
					var wantLow, wantTotal float64
					withGeneric(func() { wantLow, wantTotal = p.shapeHalf(want, g, cut) })
					low, total := p.shapeHalf(got, g, cut)
					if i := firstDiff(floats(got), floats(want)); i >= 0 || !sameValue(low, wantLow) || !sameValue(total, wantTotal) {
						t.Fatalf("shapeHalf m=%d %s cut=%d: lane %d differs, sums %v %v against %v %v", m, name, cut, i, low, total, wantLow, wantTotal)
					}
				}
				for _, step := range []int{1, 3} {
					want, got := slices.Clone(y), slices.Clone(y)
					wantOut, out := make([]float64, (m-1)/step+1), make([]float64, (m-1)/step+1)
					withGeneric(func() { p.inverseInto(wantOut, want, step) })
					p.inverseInto(out, got, step)
					if i := firstDiff(out, wantOut); i >= 0 {
						t.Fatalf("inverseInto m=%d %s step=%d: sample %d differs", m, name, step, i)
					}
				}
				za := passSpectra(h, int64(m)+2)["clean"]
				want, got := slices.Clone(y), slices.Clone(y)
				productPairs(za, want, p.unpack, 8, h)
				kern.product(za, got, p.unpack, 8, h)
				if i := firstDiff(floats(got), floats(want)); i >= 0 {
					t.Fatalf("product m=%d %s: lane %d differs", m, name, i)
				}
				for l := 2; l <= h; l *= 2 {
					want, got := make([]complex128, l), make([]complex128, l)
					want[0], got[0] = 1, 1
					rev := mustPlanFFT(h / l).perm
					foldPairs(want, y, rev, 2, l)
					kern.fold(got, y, rev, 2, l)
					if i := firstDiff(floats(got), floats(want)); i >= 0 {
						t.Fatalf("fold m=%d %s l=%d: lane %d differs", m, name, l, i)
					}
				}
			}
		}
		samplePasses(t)
	})
}

// samplePasses pins MaxAbs, Cubic and the scaled copy at every length up
// to 40 and a replay length, with NaN, ±Inf, -0 and subnormals among the
// samples, and the delay search, whose public contract is its lag.
func samplePasses(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	odd := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 5e-324, -1e-310}
	lengths := []int{45040}
	for n := range 41 {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		x := glueSignal(n, int64(n), false)
		// Clean, then NaNs among finite samples (a NaN must not
		// replace the peak found before it), then every kind.
		for special := range 3 {
			for i := range x {
				if special > 0 && rng.Intn(8) == 0 {
					x[i] = odd[rng.Intn(len(odd))*(special-1)]
				}
			}
			var want float64
			withGeneric(func() { want = MaxAbs(x) })
			if got := MaxAbs(x); !sameValue(got, want) {
				t.Fatalf("MaxAbs n=%d special=%d: %v, generic %v", n, special, got, want)
			}
			for _, peak := range []float64{want, 0.3} {
				wantC, got := slices.Clone(x), slices.Clone(x)
				withGeneric(func() { Cubic(wantC, peak, 1.5, 0.05) })
				Cubic(got, peak, 1.5, 0.05)
				if i := firstDiff(got, wantC); i >= 0 {
					t.Fatalf("Cubic n=%d special=%d peak=%v: sample %d differs", n, special, peak, i)
				}
			}
			wantS, got := make([]float64, n), make([]float64, n)
			scaleInto(wantS, x, 1.0/3)
			kern.scale(got, x, 1.0/3)
			if i := firstDiff(got, wantS); i >= 0 {
				t.Fatalf("scale n=%d special=%d: sample %d differs", n, special, i)
			}
		}
	}
	for _, n := range []int{100, 4000, 45040} {
		a, b := glueSignal(n, 11, false), append(make([]float64, 700), glueSignal(n, 11, false)...)
		var want int
		withGeneric(func() { want = EstimateDelayFFT(a, b, 1500) })
		if got := EstimateDelayFFT(a, b, 1500); got != want || got != 700 {
			t.Fatalf("EstimateDelayFFT n=%d: lag %d, generic %d, planted 700", n, got, want)
		}
	}
}

// BenchmarkReplayPasses times each pass of one replay on every kernel:
// the forward path every transform takes (packing 65,536 real samples
// and the natural-order forward at 32,768 complex points), the
// accelerometer's shaping pass at 65,536 points (power sums to 500 Hz at
// 16 kHz), its fold by 80, the per-bin pass of a 65,536-point delay
// search, and the speaker's peak and cubic over a 45,040-sample replay.
// `make bench-dsp` writes the rows to BENCH_dsp_passes.txt.
func BenchmarkReplayPasses(b *testing.B) {
	const m, n = 65536, 45040
	p := mustPlanRealFFT(m)
	spec := passSpectra(m/2, 1)["clean"]
	za := passSpectra(m/2, 2)["clean"]
	g := GainTable(nil, m, 16000, func(f float64) float64 { return 1 / (1 + f/4000) })
	x, full := glueSignal(n, 3, false), glueSignal(m, 4, false)
	y, f, shaped := make([]complex128, m/2), make([]complex128, m/(80&-80)), make([]float64, n)
	rev := mustPlanFFT(len(spec) / len(f)).perm
	passes := []struct {
		name  string
		reset func()
		run   func()
	}{
		{"PackForward/32768", func() {}, func() { pack(y, full); kern.forward(y, p.half.fwd) }},
		{"ShapeHalf/65536", func() { copy(y, spec) }, func() { p.shapeHalf(y, g, FrequencyBin(500, m, 16000)) }},
		{"Fold/65536x80", func() {}, func() { kern.fold(f, spec, rev, 2, len(f)) }},
		{"DelayProduct/65536", func() { copy(y, spec) }, func() { kern.product(za, y, p.unpack, 8, m/2) }},
		{"RenderPeakCubic/45040", func() { copy(shaped, x) }, func() { Cubic(shaped, MaxAbs(shaped), 1, 0.05) }},
	}
	for _, pass := range passes {
		for _, k := range kernels {
			b.Run(pass.name+"/"+k.name, func(b *testing.B) {
				prev := kern
				kern = k
				defer func() { kern = prev }()
				for range b.N {
					b.StopTimer()
					pass.reset()
					b.StartTimer()
					pass.run()
				}
			})
		}
	}
}
