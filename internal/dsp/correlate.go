package dsp

import (
	"math"
	"slices"
	"sort"
)

// EstimateDelay returns the lag in [0, maxLag] that maximizes the
// cross-correlation Corr(tau) = sum_n a[n]*b[n+tau] of a and b (Eq. 5):
// a is the VA recording, b the wearable recording, and the argmax lag
// estimates how many samples of b precede the content of a. Ties resolve
// to the smallest lag.
//
// Small problems run the direct O(n*maxLag) loop (EstimateDelayRange);
// above the crossover where the transform work pays for itself the
// search runs on real-input transforms in O(m log m) (EstimateDelayFFT).
// The two compute the same sums up to floating-point rounding.
func EstimateDelay(a, b []float64, maxLag int) int {
	maxLag = max(maxLag, 0)
	if useFFTCorrelation(len(a), len(b), maxLag) {
		return EstimateDelayFFT(a, b, maxLag)
	}
	return EstimateDelayRange(a, b, 0, maxLag)
}

// EstimateDelays returns EstimateDelay(a, bs[i], maxLags[i]) for every i,
// transforming a once per transform length the searches need instead of
// once per search.
func EstimateDelays(a []float64, bs [][]float64, maxLags []int) []int {
	taus := make([]int, len(bs))
	var small [4]int
	sizes := small[:0] // each search's transform length, 0 for the direct loop
	for i, b := range bs {
		maxLag, m := max(maxLags[i], 0), 0
		if useFFTCorrelation(len(a), len(b), maxLag) {
			m = corrFFTLength(len(a), len(b), maxLag)
		} else {
			taus[i] = EstimateDelayRange(a, b, 0, maxLag)
		}
		sizes = append(sizes, m)
	}
	for i, m := range sizes {
		if m != 0 && !slices.Contains(sizes[:i], m) {
			delaysAtSize(taus, a, bs, maxLags, sizes, m)
		}
	}
	return taus
}

// EstimateDelayFFT is EstimateDelay forced onto the transform path
// regardless of problem size (benchmarks and equivalence tests pin it
// against the direct loop). With pooled transform buffers the
// steady-state search allocates nothing.
func EstimateDelayFFT(a, b []float64, maxLag int) int {
	if maxLag <= 0 || len(a) == 0 || len(b) == 0 {
		return 0
	}
	var tau [1]int
	m := corrFFTLength(len(a), len(b), maxLag)
	delaysAtSize(tau[:], a, [][]float64{b}, []int{maxLag}, []int{m}, m)
	return tau[0]
}

// delaysAtSize sets taus[i] to the transform search's lag in [0,
// maxLags[i]] for bs[i] against a, for every search i on an m-point
// transform (sizes[i] == m). a's packed transform (packedSpectrum) is
// taken once, into the first half of one m-entry buffer of the m-point
// complex plan's scratch pool; the second half holds each b's in turn.
func delaysAtSize(taus []int, a []float64, bs [][]float64, maxLags, sizes []int, m int) {
	p := mustPlanRealFFT(m)
	buf := mustPlanFFT(m).getScratch()
	za, zb := (*buf)[:m/2], (*buf)[m/2:]
	p.packedSpectrum(za, a, false)
	for i, n := range sizes {
		if n == m {
			taus[i] = p.delay(a, za, bs[i], zb, maxLags[i])
		}
	}
	mustPlanFFT(m).putScratch(buf)
}

// useFFTCorrelation decides whether the transform path beats the direct
// loop: roughly (maxLag+1)*minLen multiply-adds against the transforms
// of the padded length. The factor under-weights the FFT (whose constant
// per butterfly is higher than a fused multiply-add in the direct loop).
// A search of lag 0 alone stays direct, and so the transform is never
// shorter than 2 points.
func useFFTCorrelation(na, nb, maxLag int) bool {
	if na == 0 || nb == 0 || maxLag == 0 {
		return false
	}
	m := float64(corrFFTLength(na, nb, maxLag))
	return float64(maxLag+1)*float64(min(na, nb)) > 8*m*math.Log2(m)
}

// corrFFTLength returns the power-of-two transform length that keeps the
// circular correlation free of wraparound for lags 0..maxLag: indices reach
// na-1+maxLag, and b must fit.
func corrFFTLength(na, nb, maxLag int) int { return NextPow2(max(na+maxLag, nb)) }

// delay returns the lag in [0, maxLag] that maximizes the correlation of
// a, whose packed transform (packedSpectrum) is za, with b, whose packed
// transform it takes in zb. A lag whose correlation comes out NaN or ±Inf
// means a transform overflowed on the way (an overflow never turns finite
// again); the search then reruns on a and b scaled to unit peak, which
// changes no rounding and no argmax.
func (p *RealFFTPlan) delay(a []float64, za []complex128, b []float64, zb []complex128, maxLag int) int {
	if tau, ok := p.searchDelay(za, b, zb, false, maxLag); ok {
		return tau
	}
	sa := p.half.getScratch()
	p.packedSpectrum(*sa, a, true)
	tau, _ := p.searchDelay(*sa, b, zb, true, maxLag)
	p.half.putScratch(sa)
	return tau
}

// packedSpectrum writes into z (Size/2 entries) the packed transform Z
// (see shapeHalf) of x zero-padded to Size. With unit set, x is first
// scaled by the power of two that brings the peak of |x| into [1/2, 1)
// when it has a finite nonzero peak (NaN aside).
func (p *RealFFTPlan) packedSpectrum(z []complex128, x []float64, unit bool) {
	pack(z, x)
	if unit {
		if peak := MaxAbs(x); peak != 0 && !math.IsInf(peak, 0) {
			_, e := math.Frexp(peak)
			kern.scale(floats(z), floats(z), math.Ldexp(1, -e))
		}
	}
	kern.forward(z, p.half.fwd)
}

// searchDelay returns the lag in [0, maxLag] that maximizes the
// correlation of the signal whose packed transform is za with b (scaled
// to unit peak when unit is set, see packedSpectrum), whose packed
// transform it takes in y, and whether every lag of that range came out
// finite. In one pass over the bin pairs k,
// h-k (h = Size/2) it unpacks both spectra (see shapeHalf), forms S[k] =
// conj(A[k])·B[k] and repacks S as inverseInto does, all in the
// transforms' layout. After the h-point
// inverse the float lanes, in order, hold 4·Size·Corr(tau): leaving out
// the halves scales every lag alike, so no argmax moves.
func (p *RealFFTPlan) searchDelay(za []complex128, b []float64, y []complex128, unit bool, maxLag int) (tau int, finite bool) {
	p.packedSpectrum(y, b, unit)
	h := p.n / 2
	y, za, w := y[:h], za[:h], p.unpack
	// The real bins 0 and h share entry 0: X[0] = Re Z[0] + Im Z[0] and
	// X[h] = Re Z[0] - Im Z[0].
	a0, a1, b0, b1 := real(za[0]), imag(za[0]), real(y[0]), imag(y[0])
	s0, sh := 4*(a0+a1)*(b0+b1), 4*(a0-a1)*(b0-b1)
	y[0] = complex(s0+sh, s0-sh)
	productPairs(za, y, w, 1, min(h, 8))
	kern.product(za, y, w, 8, h)
	kern.butterflies(y, p.half.inv)
	bestVal := math.Inf(-1)
	finite = true
	for t, v := range floats(y)[:maxLag+1] {
		if v > bestVal {
			tau, bestVal = t, v
		}
		finite = finite && v-v == 0 // v-v is NaN for NaN and ±Inf
	}
	return tau, finite
}

// productPairs is searchDelay's per-bin pass over the pairs of the octave
// blocks [b, 2b), lo <= b < hi.
func productPairs(za, y, w []complex128, lo, hi int) {
	for b := lo; b < hi; b *= 2 {
		for k := b; k < 2*b; k += 2 {
			j := 3*b - 1 - k
			wr, wi := real(w[k]), imag(w[k])
			// 2A[k], 2A[h-k]
			p1, q1, p2, q2 := real(za[k]), imag(za[k]), real(za[j]), imag(za[j])
			er, ei, or, oi := p1+p2, q1-q2, q1+q2, p2-p1
			wor, woi := wr*or-wi*oi, wr*oi+wi*or
			akr, aki, ajr, aji := er+wor, ei+woi, er-wor, woi-ei
			// 2B[k], 2B[h-k]
			p1, q1, p2, q2 = real(y[k]), imag(y[k]), real(y[j]), imag(y[j])
			er, ei, or, oi = p1+p2, q1-q2, q1+q2, p2-p1
			wor, woi = wr*or-wi*oi, wr*oi+wi*or
			bkr, bki, bjr, bji := er+wor, ei+woi, er-wor, woi-ei
			// 4S[k] = conj(2A[k])·2B[k], and 4S[h-k]
			skr, ski := akr*bkr+aki*bki, akr*bki-aki*bkr
			sjr, sji := ajr*bjr+aji*bji, ajr*bji-aji*bjr
			// Repacked: y[k] = 2E + i·2O and y[h-k] = conj(2E) + i·conj(2O)
			// with 2E = S[k] + conj(S[h-k]), 2O = conj(w^k)(S[k] - conj(S[h-k])).
			er, ei = skr+sjr, ski-sji
			dr, di := skr-sjr, ski+sji
			or, oi = wr*dr+wi*di, wr*di-wi*dr
			y[k] = complex(er-oi, ei+or)
			y[j] = complex(er+oi, or-ei)
		}
	}
}

// EstimateDelayRange returns the lag in [loLag, hiLag] maximizing the
// cross-correlation of a and b. Ties resolve to the smallest lag.
func EstimateDelayRange(a, b []float64, loLag, hiLag int) int {
	if loLag < 0 {
		loLag = 0
	}
	if hiLag < loLag {
		hiLag = loLag
	}
	best, bestVal := loLag, math.Inf(-1)
	for tau := loLag; tau <= hiLag; tau++ {
		sum := 0.0
		for n := 0; n+tau < len(b) && n < len(a); n++ {
			sum += a[n] * b[n+tau]
		}
		if sum > bestVal {
			best, bestVal = tau, sum
		}
	}
	return best
}

// Pearson computes the Pearson correlation coefficient of two equal-length
// vectors. It returns 0 when either vector has zero variance or the lengths
// differ.
func Pearson(a, b []float64) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	meanA, meanB := Mean(a), Mean(b)
	var num, varA, varB float64
	for i := range a {
		da, db := a[i]-meanA, b[i]-meanB
		num += da * db
		varA += da * da
		varB += db * db
	}
	den := math.Sqrt(varA * varB)
	if den == 0 {
		return 0
	}
	return num / den
}

// Correlate2D computes the 2D correlation coefficient of Eq. (6) between
// two spectrograms: the Pearson correlation over all (time, frequency)
// cells. The spectrograms are compared over their overlapping region so
// that small frame-count differences (from slightly different recording
// lengths) do not fail the comparison.
//
// The correlation streams over the spectrogram rows directly — no flattened
// copies — visiting cells in the same frame-major order as a Pearson over
// flattened vectors, so the result is bit-identical to the historical
// implementation while allocating nothing.
func Correlate2D(a, b *Spectrogram) float64 {
	if a == nil || b == nil {
		return 0
	}
	frames := a.NumFrames()
	if b.NumFrames() < frames {
		frames = b.NumFrames()
	}
	bins := a.NumBins()
	if b.NumBins() < bins {
		bins = b.NumBins()
	}
	if frames == 0 || bins == 0 {
		return 0
	}
	n := float64(frames * bins)
	var sumA, sumB float64
	for t := 0; t < frames; t++ {
		for _, v := range a.Power[t][:bins] {
			sumA += v
		}
	}
	for t := 0; t < frames; t++ {
		for _, v := range b.Power[t][:bins] {
			sumB += v
		}
	}
	meanA, meanB := sumA/n, sumB/n
	var num, varA, varB float64
	for t := 0; t < frames; t++ {
		ra, rb := a.Power[t][:bins], b.Power[t][:bins]
		for k := range ra {
			da, db := ra[k]-meanA, rb[k]-meanB
			num += da * db
			varA += da * da
			varB += db * db
		}
	}
	den := math.Sqrt(varA * varB)
	if den == 0 {
		return 0
	}
	return num / den
}

// Mean returns the arithmetic mean of x (0 for an empty slice).
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range x {
		sum += v
	}
	return sum / float64(len(x))
}

// Energy returns the sum of squares of x.
func Energy(x []float64) float64 {
	sum := 0.0
	for _, v := range x {
		sum += v * v
	}
	return sum
}

// RMS returns the root-mean-square amplitude of x.
func RMS(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	return math.Sqrt(Energy(x) / float64(len(x)))
}

// MaxAbs returns the maximum absolute value in x; NaNs are skipped.
func MaxAbs(x []float64) float64 { return kern.maxAbs(x, 0) }

func maxAbsFrom(x []float64, m float64) float64 {
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Cubic sets x[i] = gain·peak·(u - d·u³), u = x[i]/peak: a driver's nonlinearity.
func Cubic(x []float64, peak, gain, d float64) { kern.cubic(x, peak, gain, d) }

func cubicInto(x []float64, peak, gain, d float64) {
	for i, v := range x {
		u := v / peak
		x[i] = gain * peak * (u - d*u*u*u)
	}
}

// Quartile3 returns the third quartile (75th percentile) of x using linear
// interpolation between order statistics, matching the Q3 statistic of the
// phoneme selection criteria (Eqs. 2-3). It returns 0 for an empty slice.
// The input is not modified.
func Quartile3(x []float64) float64 {
	return Percentile(x, 0.75)
}

// Percentile returns the p-quantile (p in [0,1]) of x using linear
// interpolation. The input is not modified.
func Percentile(x []float64, p float64) float64 {
	n := len(x)
	if n == 0 {
		return 0
	}
	sorted := make([]float64, n)
	copy(sorted, x)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[n-1]
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
