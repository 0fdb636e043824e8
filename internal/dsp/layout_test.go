package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"testing"
)

// The transforms leave their spectra in the bit-reversed layout, and every
// per-bin pass works there. The oracles below are the passes as they ran
// on natural-order spectra, after a bit-reversal permutation; each layout
// pass must give their bits at the permuted positions.

// naturalTwiddles is p's forward table in the butterflies' stage order.
func naturalTwiddles(p *FFTPlan) []complex128 {
	tw := make([]complex128, p.n-1)
	fillTwiddles(tw, p.n, -1)
	return tw
}

// naturalUnpack is the real transform's twiddle table by bin, k = 0..h.
func naturalUnpack(p *RealFFTPlan) []complex128 {
	w := make([]complex128, p.n/2+1)
	for k := range w {
		w[k] = cmplx.Rect(1, -2*math.Pi*float64(k)/float64(p.n))
	}
	return w
}

// toLayout returns x with entry rev(p) at p.
func toLayout(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	for i, k := range mustPlanFFT(len(x)).perm {
		out[i] = x[k]
	}
	return out
}

// gainsLayout is GainTable's reordering of a table by bin.
func gainsLayout(g []float64) []float64 {
	h := len(g) - 1
	out := slices.Clone(g)
	for i, k := range mustPlanFFT(h).perm {
		out[i] = g[k]
	}
	return out
}

// shapePairsNatural is shapeHalf's pass as it ran on the natural order:
// the pairs k, h-k, k0 <= k < k1, with the powers summed in k order.
func shapePairsNatural(y, w []complex128, g []float64, k0, k1, cut int, low, total float64) (float64, float64) {
	for k := k0; k < k1; k++ {
		j := len(y) - k
		zk, zj := y[k], cmplx.Conj(y[j])
		e := (zk + zj) * complex(0.5, 0)
		wo := w[k] * ((zk - zj) * complex(0, -0.5))
		xk, xj := e+wo, cmplx.Conj(e-wo) // X[k], and X[h-k] by conjugate symmetry
		pk, pj := real(xk)*real(xk)+imag(xk)*imag(xk), real(xj)*real(xj)+imag(xj)*imag(xj)
		if j == k {
			pj = 0 // the middle bin is its own partner
		}
		total += pk + pj
		if k <= cut {
			low += pk
		}
		if j <= cut {
			low += pj
		}
		gk, gj := g[k], g[j]
		y[k] = complex(real(xk)*gk, imag(xk)*gk)
		y[j] = complex(real(xj)*gj, imag(xj)*gj)
	}
	return low, total
}

// shapeHalfNatural is shapeHalf on the natural order.
func shapeHalfNatural(p *RealFFTPlan, y []complex128, g []float64, cut int) (low, total float64) {
	h := p.n / 2
	a, b := real(y[0]), imag(y[0])
	nyq := a - b
	y[0] = complex((a+b)*g[0], nyq*g[h])
	low, total = shapePairsNatural(y, naturalUnpack(p), g, 1, h/2+1, cut, 0, 0)
	if cut < 0 {
		return 0, 0
	}
	if h <= cut {
		low += nyq * nyq
	}
	return low, total + nyq*nyq
}

// repackPairsNatural is inverseInto's re-pack on the natural order.
func repackPairsNatural(y, w []complex128, k0, k1 int) {
	for k := k0; k < k1; k++ {
		j := len(y) - k
		yk, yj := y[k], cmplx.Conj(y[j])
		e := yk + yj
		o := cmplx.Conj(w[k]) * (yk - yj)
		y[k] = e + complex(-imag(o), real(o))
		y[j] = cmplx.Conj(e) + complex(imag(o), real(o))
	}
}

// productPairsNatural is searchDelay's per-bin pass on the natural order.
func productPairsNatural(za, y, w []complex128, k0, k1 int) {
	for k := k0; k < k1; k++ {
		j := len(y) - k
		wr, wi := real(w[k]), imag(w[k])
		p1, q1, p2, q2 := real(za[k]), imag(za[k]), real(za[j]), imag(za[j])
		er, ei, or, oi := p1+p2, q1-q2, q1+q2, p2-p1
		wor, woi := wr*or-wi*oi, wr*oi+wi*or
		akr, aki, ajr, aji := er+wor, ei+woi, er-wor, woi-ei
		p1, q1, p2, q2 = real(y[k]), imag(y[k]), real(y[j]), imag(y[j])
		er, ei, or, oi = p1+p2, q1-q2, q1+q2, p2-p1
		wor, woi = wr*or-wi*oi, wr*oi+wi*or
		bkr, bki, bjr, bji := er+wor, ei+woi, er-wor, woi-ei
		skr, ski := akr*bkr+aki*bki, akr*bki-aki*bkr
		sjr, sji := ajr*bjr+aji*bji, ajr*bji-aji*bjr
		er, ei = skr+sjr, ski-sji
		dr, di := skr-sjr, ski+sji
		or, oi = wr*dr+wi*di, wr*di-wi*dr
		y[k] = complex(er-oi, ei+or)
		y[j] = complex(er+oi, or-ei)
	}
}

// foldBlocks adds y[k] to f[k mod l] and conj(y[k]), the bin above len(y),
// to f[-k mod l] for 0 < k < len(y) (l = len(f) divides len(y)), in blocks
// of l with each f[r]'s terms in k order: y[ql+r]'s first for r <= l/2.
func foldBlocks(f, y []complex128) {
	l := len(f)
	for q := 0; q < len(y); q += l {
		for r := max(1-q, 0); r < l; r++ { // y[0] holds the real bins
			d, c := y[q+r], cmplx.Conj(y[q+(l-r)&(l-1)])
			if r > l/2 {
				d, c = c, d
			}
			f[r] += d
			f[r] += c
		}
	}
}

// reduceNatural is reduceInto's power read on the natural-order packed
// transform z of a Size-point real signal.
func reduceNatural(p *RealFFTPlan, z []complex128, bins int) []float64 {
	m := p.n / 2
	dst := make([]float64, bins)
	s, d := real(z[0])+imag(z[0]), real(z[0])-imag(z[0])
	dst[0] = s * s
	if bins > m {
		dst[m] = d * d
	}
	w := naturalUnpack(p)
	for k := 1; k < min(m, bins); k++ {
		a1, b1, a2, b2 := real(z[k]), imag(z[k]), real(z[m-k]), imag(z[m-k])
		er, ei := (a1+a2)*0.5, (b1-b2)*0.5
		or, oi := (b1+b2)*0.5, (a2-a1)*0.5
		wr, wi := real(w[k]), imag(w[k])
		re := er + (wr*or - wi*oi)
		im := ei + (wr*oi + wi*or)
		dst[k] = re*re + im*im
	}
	return dst
}

// The natural-order forward, on every kernel, carries the bits of the
// bit-reversal permutation followed by the generic butterflies at every
// size from 2 to 262,144 points, on clean, special (NaN, ±Inf, -0,
// subnormal), all-zero and signed-zero inputs, with bin rev(p) at p.
func TestForwardBitIdenticalToPermutedButterflies(t *testing.T) {
	forEachButterflies(t, func(t *testing.T) {
		for _, n := range passSizes() {
			p := mustPlanFFT(n)
			nat := naturalTwiddles(p)
			for name, x := range passSpectra(n, int64(n)+5) {
				want, got := slices.Clone(x), slices.Clone(x)
				p.permute(want)
				butterfliesGeneric(want, nat)
				kern.forward(got, p.fwd)
				if i := firstDiff(floats(got), floats(toLayout(want))); i >= 0 {
					t.Fatalf("n=%d %s: lane %d differs", n, name, i)
				}
			}
		}
	})
}

// Each layout pass carries its natural-order oracle's bits, entry for
// entry at the permuted positions, on every kernel: the shaping pass with
// its power sums, the inverse with its re-pack, the delay search's
// product, the decimation fold at every fold, and the power read.
func TestLayoutPassesBitIdenticalToNatural(t *testing.T) {
	forEachButterflies(t, func(t *testing.T) {
		for _, m := range passSizes() {
			p := mustPlanRealFFT(m)
			h := m / 2
			g := make([]float64, h+1)
			rng := rand.New(rand.NewSource(int64(m)))
			for k := range g {
				g[k] = rng.Float64() * 2
			}
			za := passSpectra(h, int64(m)+2)["clean"]
			for name, y := range passSpectra(h, int64(m)+1) {
				for _, cut := range []int{-1, 0, 1, h / 2, h, h + 3} {
					want, got := slices.Clone(y), toLayout(y)
					wantLow, wantTotal := shapeHalfNatural(p, want, g, cut)
					low, total := p.shapeHalf(got, gainsLayout(g), cut)
					if i := firstDiff(floats(got), floats(toLayout(want))); i >= 0 || !sameValue(low, wantLow) || !sameValue(total, wantTotal) {
						t.Fatalf("shapeHalf m=%d %s cut=%d: lane %d differs, sums %v %v against %v %v", m, name, cut, i, low, total, wantLow, wantTotal)
					}
				}
				out, wantOut := make([]float64, m), make([]float64, m)
				inverseIntoOracle(p, wantOut, slices.Clone(y), 1)
				p.inverseInto(out, toLayout(y), 1)
				if i := firstDiff(out, wantOut); i >= 0 {
					t.Fatalf("inverseInto m=%d %s: sample %d differs", m, name, i)
				}
				want, got := slices.Clone(y), toLayout(y)
				productPairsNatural(za, want, naturalUnpack(p), 1, h/2+1)
				zl := toLayout(za)
				productPairs(zl, got, p.unpack, 1, min(h, 8))
				kern.product(zl, got, p.unpack, 8, h)
				if i := firstDiff(floats(got[1:]), floats(toLayout(want)[1:])); i >= 0 {
					t.Fatalf("product m=%d %s: lane %d differs", m, name, i)
				}
				for l := 2; l <= h; l *= 2 {
					want, got := make([]complex128, l), make([]complex128, l)
					want[0], got[0] = 1, 1
					foldBlocks(want, y)
					rev := mustPlanFFT(h / l).perm
					foldPairs(got, toLayout(y), rev, 0, 2)
					kern.fold(got, toLayout(y), rev, 2, l)
					if i := firstDiff(floats(got), floats(toLayout(want))); i >= 0 {
						t.Fatalf("fold m=%d %s l=%d: lane %d differs", m, name, l, i)
					}
				}
			}
			if m <= 1<<12 {
				x := glueSignal(m, int64(m), false)
				z := make([]complex128, h)
				pack(z, x)
				p.half.Forward(z, z)
				for _, bins := range []int{1, min(29, h+1), h + 1} {
					got := p.LowPowerInto(nil, x, nil, bins)
					if i := firstDiff(got, reduceNatural(p, z, bins)); i >= 0 {
						t.Fatalf("power m=%d bins=%d: bin %d differs", m, bins, i)
					}
				}
			}
		}
	})
}
