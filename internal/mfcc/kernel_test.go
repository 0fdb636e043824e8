package mfcc

import (
	"math"
	"math/rand"
	"testing"
)

// kernel is one set of Extract's per-frame passes; the DCT's kernels are
// dsp's and pinned there.
type kernel struct {
	name      string
	emphasize func(dst, x, w []float64, c, prev float64)
	logs      func(dst, src []float64, floor float64, i int) int
}

// generic is the pure-Go set.
var generic = kernel{"generic", emphasizeGeneric, func(dst, src []float64, floor float64, i int) int { return i }}

// kernels lists the set this CPU selected beside generic. It reads the
// selection when called: a package-level list would be built before
// mfcc_amd64.go's init makes it.
func kernels() []kernel {
	return []kernel{{"selected", emphasize, logLanes}, generic}
}

// withKernel runs f with k's passes selected.
func withKernel(k kernel, f func()) {
	e, l := emphasize, logLanes
	emphasize, logLanes = k.emphasize, k.logs
	defer func() { emphasize, logLanes = e, l }()
	f()
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestExtractKernelsBitIdentical runs Extract on every kernel this CPU can
// run against the generic loops, at frame counts around the four-lane
// groups and a session's length, with and without pre-emphasis. A silent
// stretch and one infinite sample send channels down the log kernel's
// scalar fallback.
func TestExtractKernelsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, pre := range []float64{0, 0.97} {
		cfg := DefaultConfig()
		cfg.PreEmphasis = pre
		e, err := NewExtractor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, frames := range []int{1, 3, 4, 5, 284} {
			x := make([]float64, e.FrameLength()+(frames-1)*e.FrameShift()+37)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			if frames == 284 {
				clear(x[8000:9000])
				x[20000] = math.Inf(1)
			}
			var want [][]float64
			withKernel(generic, func() { want, err = e.Extract(x) })
			if err != nil || len(want) != frames {
				t.Fatalf("generic: %d frames, err %v", len(want), err)
			}
			for _, k := range kernels() {
				var got [][]float64
				withKernel(k, func() { got, err = e.Extract(x) })
				if err != nil {
					t.Fatal(err)
				}
				for f := range want {
					for c := range want[f] {
						if !sameBits(got[f][c], want[f][c]) {
							t.Fatalf("%s, pre-emphasis %v, %d frames: frame %d coeff %d = %v, generic %v",
								k.name, pre, frames, f, c, got[f][c], want[f][c])
						}
					}
				}
			}
		}
	}
}

// TestPassesBitIdentical pins each pass of every kernel against generic's
// on the shapes Extract never gives it: window lengths off the four-lane
// groups, and the log's special cases and channel tails.
func TestPassesBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, k := range kernels() {
		for n := 1; n <= 11; n++ {
			x, w := make([]float64, n), make([]float64, n)
			for i := range x {
				x[i], w[i] = rng.NormFloat64(), rng.Float64()
			}
			for _, c := range []float64{0, 0.97} {
				want, got := make([]float64, n), make([]float64, n)
				emphasizeGeneric(want, x, w, c, -0.5)
				k.emphasize(got, x, w, c, -0.5)
				for i := range want {
					if !sameBits(got[i], want[i]) {
						t.Fatalf("%s emphasize n=%d c=%v: [%d] = %v, generic %v", k.name, n, c, i, got[i], want[i])
					}
				}
			}
		}

		src := []float64{0, math.Copysign(0, -1), -1, math.Inf(1), math.Inf(-1), math.NaN(),
			5e-324, 1e-310, 1e-12, 0.7071067811865476, 1, 2, 3, 1e300, math.MaxFloat64}
		for i := 0; i < 41; i++ {
			src = append(src, math.Exp(rng.NormFloat64()*20))
		}
		// In order, then shuffled so that each special value meets every lane.
		shuffled := append([]float64(nil), src...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		for _, run := range []struct {
			src   []float64
			floor float64
		}{{src, 0}, {src, 1e-12}, {shuffled, 0}, {shuffled, 1e-12}} {
			src, floor := run.src, run.floor
			got := make([]float64, len(src))
			for i := 0; i < len(src); {
				i = k.logs(got, src, floor, i)
				for end := min(i+4, len(src)); i < end; i++ {
					got[i] = math.Log(src[i] + floor)
				}
			}
			for i, v := range src {
				if want := math.Log(v + floor); !sameBits(got[i], want) {
					t.Fatalf("%s log(%v + %v) = %v, math.Log %v", k.name, v, floor, got[i], want)
				}
			}
		}
	}
}
