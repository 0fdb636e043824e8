package dsp_test

import (
	"math"
	"testing"

	"vibguard/internal/dsp"
	"vibguard/internal/dsp/dspbench"
)

// shapeBound bounds how far the real-input shaping kernel may move from
// the legacy complex transform pair (dspbench.FrequencyShapeLegacy): the
// largest sample deviation relative to the largest legacy sample. It is
// a rounding bound, orders of magnitude above what the kernels differ by
// and far below anything a score could see.
const shapeBound = 1e-11

// powerBound is the same kind of bound for dsp.ShapeDecimate's two power
// sums against the sums of dspbench.PowerSpectrumLegacy of the
// zero-padded signal, relative to the total. Both sides add up to 65,536
// rounded terms in different orders, so it is looser than shapeBound.
const powerBound = 2e-11

// boundGains are the replay speaker's band-pass, which is zero at
// Nyquist, and a rising tilt, which is not: the real Nyquist bin travels
// in a lane of its own through the packed layout and the fold.
var boundGains = []func(float64) float64{dspbench.ReplayGain, func(f float64) float64 { return 1 + f/4000 }}

// boundLengths are the edge lengths of the kernels: one and two samples,
// both sides of the decimation factor, a power of two, a replay segment
// and its odd neighbour, and lengths on and past a power of two.
var boundLengths = []int{1, 2, 79, 80, 81, 4096, 45040, 45041, 65536, 70000}

// relDev returns max|got-want| relative to max|want|: 0 when the slices
// agree exactly, +Inf when want is all zero and got is not.
func relDev(got, want []float64) float64 {
	if len(got) != len(want) {
		return math.Inf(1)
	}
	dev := 0.0
	for i := range want {
		dev = max(dev, math.Abs(got[i]-want[i]))
	}
	if dev == 0 {
		return 0
	}
	return dev / dsp.MaxAbs(want)
}

// FrequencyShape runs on the packed real-input transform pair; it must
// stay within shapeBound of the legacy complex pair on every butterfly
// kernel, including on reused pool buffers: the last length pads into a
// buffer the 65536-sample signal filled.
func TestFrequencyShapeWithinBoundOfLegacy(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		for _, n := range []int{1, 2, 7, 64, 1000, 45040, 45040, 65536, 40000} {
			x := randomReal(n, int64(n)+600)
			for i, gain := range boundGains {
				want := dspbench.FrequencyShapeLegacy(x, 16000, gain)
				if d := relDev(dsp.FrequencyShape(x, 16000, gain), want); !(d <= shapeBound) {
					t.Fatalf("n=%d gain %d: deviation %.3g of max|legacy|, bound %g", n, i, d, shapeBound)
				}
			}
		}
	})
}

// ShapeDecimate folds the shaped spectrum and inverts at the folded size;
// it must stay within shapeBound of shaping with the legacy pair and then
// point-sampling with dspbench.DecimateSampleHold, for every edge length, for
// factors whose fold is 1 (1, 3), 16 (80) and 32 (160), and on the
// all-zero signal exactly. Its power sums must stay within powerBound of
// summing the legacy power spectrum of the signal zero-padded to m =
// NextPow2(n), for cuts at 0, at the replay's 500 Hz and at Nyquist; the
// all-zero signal gives zero sums.
func TestShapeDecimateWithinBoundOfLegacy(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		worst, worstPower := 0.0, 0.0
		for _, n := range boundLengths {
			x := randomReal(n, int64(n)+900)
			m := dsp.NextPow2(n)
			spec := dspbench.PowerSpectrumLegacy(append(x[:n:n], make([]float64, m-n)...))
			for i, gain := range boundGains {
				shaped := dspbench.FrequencyShapeLegacy(x, 16000, gain)
				for j, factor := range []int{1, 3, 80, 160} {
					want, err := dspbench.DecimateSampleHold(shaped, factor)
					if err != nil {
						t.Fatal(err)
					}
					cutHz := []float64{500, 0, 8000, 500}[j]
					got, gotLow, gotTotal := dsp.ShapeDecimate(x, 16000, gain, factor, cutHz)
					d := relDev(got, want)
					if !(d <= shapeBound) {
						t.Fatalf("n=%d gain %d factor %d: deviation %.3g of max|legacy|, bound %g",
							n, i, factor, d, shapeBound)
					}
					worst = max(worst, d)
					cut := dsp.FrequencyBin(cutHz, m, 16000)
					var low, total float64
					for k, v := range spec[1:] {
						total += v
						if k+1 <= cut {
							low += v
						}
					}
					p := max(math.Abs(gotLow-low), math.Abs(gotTotal-total))
					if p != 0 {
						p /= total // +Inf when only the legacy total is zero
					}
					if !(p <= powerBound) {
						t.Fatalf("n=%d cut %v Hz: low %v total %v, legacy %v %v (deviation %.3g)",
							n, cutHz, gotLow, gotTotal, low, total, p)
					}
					worstPower = max(worstPower, p)
				}
			}
		}
		zero, low, total := dsp.ShapeDecimate(make([]float64, 45040), 16000, dspbench.ReplayGain, 80, 500)
		if len(zero) != 563 || dsp.MaxAbs(zero) != 0 || low != 0 || total != 0 {
			t.Fatalf("all-zero signal: %d samples, max %v, sums %v %v", len(zero), dsp.MaxAbs(zero), low, total)
		}
		t.Logf("largest deviations %.3g of max|legacy|, power sums %.3g of the total", worst, worstPower)
	})
}
