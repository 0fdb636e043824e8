package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// The oracles below are the shaping glue as it was before the gain
// tables, the in-order packing and the unzeroed pool scratch: every
// sample scattered to its bit-reversed position in a fresh zeroed buffer,
// the gain called per bin, and the decimated inverse read back sample by
// sample. The planned transforms must keep their bits.

func packOracle(p *FFTPlan, dst []complex128, x []float64) {
	h := len(x) / 2
	for j, pj := range p.perm[:h] {
		dst[pj] = complex(x[2*j], x[2*j+1])
	}
	if len(x)%2 == 1 {
		dst[p.perm[h]] = complex(x[2*h], 0)
	}
}

func shapeHalfOracle(p *RealFFTPlan, y []complex128, sampleRate float64, gain func(freqHz float64) float64, cut int) (low, total float64) {
	h := p.n / 2
	g := func(k int) float64 { return gain(BinFrequency(k, p.n, sampleRate)) }
	a, b := real(y[0]), imag(y[0])
	nyq := a - b
	y[0] = complex((a+b)*g(0), nyq*g(h))
	for k := 1; k <= h/2; k++ {
		j := h - k
		zk, zj := y[k], cmplx.Conj(y[j])
		e := (zk + zj) * complex(0.5, 0)
		wo := p.unpack[k] * ((zk - zj) * complex(0, -0.5))
		xk, xj := e+wo, cmplx.Conj(e-wo)
		pk, pj := real(xk)*real(xk)+imag(xk)*imag(xk), real(xj)*real(xj)+imag(xj)*imag(xj)
		if j == k {
			pj = 0
		}
		total += pk + pj
		if k <= cut {
			low += pk
		}
		if j <= cut {
			low += pj
		}
		gk, gj := g(k), g(j)
		y[k] = complex(real(xk)*gk, imag(xk)*gk)
		y[j] = complex(real(xj)*gj, imag(xj)*gj)
	}
	total += nyq * nyq
	if h <= cut {
		low += nyq * nyq
	}
	return low, total
}

func inverseIntoOracle(p *RealFFTPlan, dst []float64, y []complex128, step int) {
	h := p.n / 2
	a, b := real(y[0]), imag(y[0])
	y[0] = complex(a+b, a-b)
	for k := 1; k <= h/2; k++ {
		j := h - k
		yk, yj := y[k], cmplx.Conj(y[j])
		e := yk + yj
		o := cmplx.Conj(p.unpack[k]) * (yk - yj)
		y[k] = e + complex(-imag(o), real(o))
		y[j] = cmplx.Conj(e) + complex(imag(o), real(o))
	}
	p.half.transform(y, p.half.inv)
	scale := 1 / float64(p.n)
	for i := range dst {
		t := i * step
		if v := y[t>>1]; t&1 == 0 {
			dst[i] = real(v) * scale
		} else {
			dst[i] = imag(v) * scale
		}
	}
}

func shapeDecimateOracle(x []float64, sampleRate float64, gain func(freqHz float64) float64, factor int, cutHz float64) (out []float64, low, total float64) {
	n := len(x)
	if n == 0 {
		return nil, 0, 0
	}
	out = make([]float64, (n+factor-1)/factor)
	m := NextPow2(n)
	if m == 1 {
		out[0] = x[0] * gain(0)
		return out, 0, 0
	}
	p := mustPlanRealFFT(m)
	y := make([]complex128, m/2)
	packOracle(p.half, y, x)
	butterflies(y, p.half.fwd)
	low, total = shapeHalfOracle(p, y, sampleRate, gain, FrequencyBin(cutHz, m, sampleRate))
	fold := min(factor&-factor, m/2)
	if fold == 1 {
		inverseIntoOracle(p, out, y, factor)
		return out, low, total
	}
	l := m / fold
	q := mustPlanFFT(l)
	f := make([]complex128, l)
	f[0] = complex(real(y[0])+imag(y[0]), 0)
	for k := 1; k < m/2; k++ {
		f[k&(l-1)] += y[k]
		f[(m-k)&(l-1)] += cmplx.Conj(y[k])
	}
	q.transform(f, q.inv)
	step, inv := factor/fold, 1/float64(m)
	for i := range out {
		out[i] = real(f[i*step]) * inv
	}
	return out, low, total
}

// glueLengths are the pinned signal lengths: the smallest, both sides of
// the 64-point permute tile, the L2 cut between scattering and copying
// in pack, a replay segment and its odd neighbour, and lengths on and
// past a power of two.
var glueLengths = []int{1, 2, 3, 63, 64, 65, 4096, 45040, 45041, 65536, 70000}

// forEachButterflies runs f once per butterfly kernel of this CPU.
func forEachButterflies(t *testing.T, f func(t *testing.T)) {
	for _, k := range kernels {
		t.Run(k.name, func(t *testing.T) {
			prev := butterflies
			butterflies = k.run
			defer func() { butterflies = prev }()
			f(t)
		})
	}
}

// poisonScratch leaves a NaN-filled buffer in p's pool, so the next
// transform of that size most likely starts on dirty scratch.
func poisonScratch(p *FFTPlan) {
	buf := p.getScratch()
	for i := range *buf {
		(*buf)[i] = complex(math.NaN(), math.Inf(-1))
	}
	p.putScratch(buf)
}

func glueSignal(n int, seed int64, zero bool) []float64 {
	x := make([]float64, n)
	if !zero {
		rng := rand.New(rand.NewSource(seed))
		for i := range x {
			x[i] = rng.NormFloat64()
		}
	}
	return x
}

func sameFloatBits(got, want []float64) int {
	if len(got) != len(want) || (got == nil) != (want == nil) {
		return 0
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

// FrequencyShape and ShapeDecimate (factors 1 and 80, the replay's
// decimation, with the power sums at 500 Hz) carry the oracle's bits at
// every pinned length and on the all-zero signal, on every butterfly
// kernel and on dirty pool scratch; so does ShapeDecimateTable with the
// curve sampled by GainTable.
func TestShapeDecimateBitIdenticalToScatter(t *testing.T) {
	gain := func(f float64) float64 {
		if f < 180 {
			return (f / 180) * (f / 180)
		}
		return math.Max(0, 1-math.Max(0, f-6500)/1500)
	}
	forEachButterflies(t, func(t *testing.T) {
		for _, n := range glueLengths {
			for _, zero := range []bool{false, true} {
				x := glueSignal(n, int64(n), zero)
				m := NextPow2(n)
				if m > 1 {
					poisonScratch(mustPlanRealFFT(m).half)
				}
				if i := sameFloatBits(FrequencyShape(x, 16000, gain), func() []float64 {
					out, _, _ := shapeDecimateOracle(x, 16000, gain, 1, 0)
					return out
				}()); i >= 0 {
					t.Fatalf("FrequencyShape n=%d zero=%v: sample %d differs", n, zero, i)
				}
				for _, factor := range []int{1, 80} {
					want, wantLow, wantTotal := shapeDecimateOracle(x, 16000, gain, factor, 500)
					for _, table := range []bool{false, true} {
						if m > 1 {
							poisonScratch(mustPlanRealFFT(m).half)
							poisonScratch(mustPlanFFT(m / min(16, m/2)))
						}
						got, low, total := ShapeDecimate(x, 16000, gain, factor, 500)
						if table {
							got, low, total = ShapeDecimateTable(x, 16000, GainTable(nil, m, 16000, gain), factor, 500)
						}
						if i := sameFloatBits(got, want); i >= 0 || math.Float64bits(low) != math.Float64bits(wantLow) || math.Float64bits(total) != math.Float64bits(wantTotal) {
							t.Fatalf("n=%d zero=%v factor=%d table=%v: sample %d differs, sums %v %v against %v %v", n, zero, factor, table, i, low, total, wantLow, wantTotal)
						}
					}
				}
			}
		}
	})
}
