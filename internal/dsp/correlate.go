package dsp

import (
	"math"
	"sort"
)

// CrossCorrelate computes the raw cross-correlation Corr(tau) =
// sum_n a[n]*b[n+tau] for tau in [0, maxLag], as used by the cross-device
// synchronization of Eq. (5): a is the VA recording, b the wearable
// recording, and the argmax lag estimates how many samples of b precede the
// content of a.
//
// Small problems use the direct O(n*maxLag) loop; above the crossover where
// the transform work pays for itself the values are computed in O(m log m)
// via the planned FFT engine (see CrossCorrelateFFT). Both paths compute
// the same sums, differing only by floating-point rounding on the order of
// machine epsilon.
func CrossCorrelate(a, b []float64, maxLag int) []float64 {
	if maxLag < 0 {
		maxLag = 0
	}
	if useFFTCorrelation(len(a), len(b), maxLag) {
		return CrossCorrelateFFT(a, b, maxLag)
	}
	return crossCorrelateDirect(a, b, maxLag)
}

// crossCorrelateDirect is the reference O(n*maxLag) correlation loop, kept
// both as the below-crossover fast path (tiny problems don't amortize a
// transform) and as the ground truth the FFT path is pinned against.
func crossCorrelateDirect(a, b []float64, maxLag int) []float64 {
	out := make([]float64, maxLag+1)
	for tau := 0; tau <= maxLag; tau++ {
		sum := 0.0
		for n := 0; n+tau < len(b) && n < len(a); n++ {
			sum += a[n] * b[n+tau]
		}
		out[tau] = sum
	}
	return out
}

// useFFTCorrelation decides whether the transform path beats the direct
// loop: roughly (maxLag+1)*minLen multiply-adds against two planned FFTs of
// the padded length. The factor under-weights the FFT (whose constant per
// butterfly is higher than a fused multiply-add in the direct loop).
func useFFTCorrelation(na, nb, maxLag int) bool {
	if na == 0 || nb == 0 {
		return false
	}
	minLen := na
	if nb < minLen {
		minLen = nb
	}
	direct := float64(maxLag+1) * float64(minLen)
	m := float64(corrFFTLength(na, nb, maxLag))
	return direct > 8*m*math.Log2(m)
}

// corrFFTLength returns the power-of-two transform length that keeps the
// circular correlation free of wraparound for lags 0..maxLag: indices reach
// na-1+maxLag, and b must fit.
func corrFFTLength(na, nb, maxLag int) int {
	need := na + maxLag
	if nb > need {
		need = nb
	}
	return NextPow2(need)
}

// corrSpectrum computes the circular cross-correlation of a and b (scaled
// by m, the returned transform length) into a pooled buffer: entry tau
// holds m*Corr(tau) in its real part for tau in [0, maxLag]. The buffer
// comes from the plan's scratch pool (AlignRecordings runs once per scored
// sample from every ParallelScorer worker, so steady-state delay estimation
// allocates nothing); the caller must return buf with p.putScratch. The
// inputs are packed in order, zero past the longer, and the transform
// permutes them (see FFTPlan.pack).
func corrSpectrum(a, b []float64, maxLag int) (f []complex128, p *FFTPlan, buf *[]complex128) {
	m := corrFFTLength(len(a), len(b), maxLag)
	p = mustPlanFFT(m)
	buf = p.getScratch()
	f = *buf
	n := min(len(a), len(b))
	for i, v := range a[:n] {
		f[i] = complex(v, b[i])
	}
	for i, v := range a[n:] {
		f[n+i] = complex(v, 0)
	}
	for i, v := range b[n:] {
		f[n+i] = complex(0, v)
	}
	clear(f[max(len(a), len(b)):])
	p.transform(f, p.fwd)
	// For packed f = a + i*b the individual spectra are
	//   A[k] = (F[k] + conj(F[m-k]))/2,  B[k] = -i*(F[k] - conj(F[m-k]))/2,
	// and the cross-spectrum S[k] = conj(A[k])*B[k] is Hermitian (the
	// correlation is real), so only half of it needs computing.
	half := m / 2
	for k := 0; k <= half; k++ {
		fk := f[k]
		fmk := f[(m-k)%m]
		h := complex(real(fmk), -imag(fmk))
		ak := (fk + h) * complex(0.5, 0)
		bk := (fk - h) * complex(0, -0.5)
		s := complex(real(ak), -imag(ak)) * bk
		f[k] = s
		if k != 0 && k != half {
			f[m-k] = complex(real(s), -imag(s))
		}
	}
	p.transform(f, p.inv)
	return f, p, buf
}

// CrossCorrelateFFT computes the same lags as CrossCorrelate via the
// frequency domain: both signals are packed into one complex transform
// (a in the real lane, b in the imaginary lane), the conjugate
// cross-spectrum conj(A)*B is assembled from the packed spectrum's
// Hermitian halves, and a single inverse transform yields the correlation.
// Two planned FFTs total, O(m log m) independent of maxLag.
func CrossCorrelateFFT(a, b []float64, maxLag int) []float64 {
	if maxLag < 0 {
		maxLag = 0
	}
	if len(a) == 0 || len(b) == 0 {
		return make([]float64, maxLag+1)
	}
	f, p, buf := corrSpectrum(a, b, maxLag)
	inv := 1 / float64(p.n)
	out := make([]float64, maxLag+1)
	for tau := range out {
		out[tau] = real(f[tau]) * inv
	}
	p.putScratch(buf)
	return out
}

// EstimateDelay returns the lag in [0, maxLag] that maximizes the
// cross-correlation of a and b (Eq. 5). Ties resolve to the smallest lag.
// Above the correlation crossover size the search runs on the FFT path.
func EstimateDelay(a, b []float64, maxLag int) int {
	if maxLag < 0 {
		maxLag = 0
	}
	if useFFTCorrelation(len(a), len(b), maxLag) {
		return EstimateDelayFFT(a, b, maxLag)
	}
	return argmaxLag(crossCorrelateDirect(a, b, maxLag))
}

// EstimateDelayFFT is EstimateDelay forced onto the frequency-domain
// correlation path regardless of problem size (benchmarks and equivalence
// tests pin it against the direct loop). With the pooled transform buffer
// the steady-state search allocates nothing.
func EstimateDelayFFT(a, b []float64, maxLag int) int {
	if maxLag < 0 {
		maxLag = 0
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	f, p, buf := corrSpectrum(a, b, maxLag)
	inv := 1 / float64(p.n)
	best, bestVal := 0, math.Inf(-1)
	for tau := 0; tau <= maxLag; tau++ {
		if v := real(f[tau]) * inv; v > bestVal {
			best, bestVal = tau, v
		}
	}
	p.putScratch(buf)
	return best
}

func argmaxLag(corr []float64) int {
	best, bestVal := 0, math.Inf(-1)
	for tau, v := range corr {
		if v > bestVal {
			best, bestVal = tau, v
		}
	}
	return best
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

// EstimateDelayFast estimates the delay like EstimateDelay but with a
// coarse-to-fine search: a decimated pass locates the neighborhood and a
// full-rate pass refines it. It predates the FFT correlation path (which is
// both exact and usually faster — see EstimateDelay) and is kept for
// callers that want the bounded-refinement behavior; it trades a tiny
// accuracy risk (pathological narrowband signals) for a ~factor^2 speedup
// over the direct loop on long recordings.
func EstimateDelayFast(a, b []float64, maxLag int) int {
	const factor = 16
	if maxLag < 4*factor || len(a) < 4*factor || len(b) < 4*factor {
		return EstimateDelay(a, b, maxLag)
	}
	// Box-filter before decimating so off-grid shifts still correlate in
	// the coarse pass.
	da, err := DecimateSampleHold(boxFilter(a, factor), factor)
	if err != nil {
		return EstimateDelay(a, b, maxLag)
	}
	db, err := DecimateSampleHold(boxFilter(b, factor), factor)
	if err != nil {
		return EstimateDelay(a, b, maxLag)
	}
	coarse := EstimateDelay(da, db, maxLag/factor)
	// The coarse pass matches envelopes, whose correlation peaks are broad
	// (tens of ms for speech); refine over a window wide enough to recover
	// the exact peak even when the envelope estimate sits a pitch period
	// or two away.
	lo := coarse*factor - 24*factor
	if lo < 0 {
		// Clamp here rather than relying on EstimateDelayRange's internal
		// clamp: a coarse peak near zero legitimately produces a negative
		// window start, and the search contract is [0, maxLag].
		lo = 0
	}
	hi := coarse*factor + 24*factor
	if hi > maxLag {
		hi = maxLag
	}
	return EstimateDelayRange(a, b, lo, hi)
}

// boxFilter applies a running mean of the given width.
func boxFilter(x []float64, width int) []float64 {
	if width <= 1 || len(x) == 0 {
		out := make([]float64, len(x))
		copy(out, x)
		return out
	}
	out := make([]float64, len(x))
	sum := 0.0
	for i, v := range x {
		sum += v
		if i >= width {
			sum -= x[i-width]
		}
		n := width
		if i+1 < width {
			n = i + 1
		}
		out[i] = sum / float64(n)
	}
	return out
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

// MaxAbs returns the maximum absolute value in x.
func MaxAbs(x []float64) float64 {
	max := 0.0
	for _, v := range x {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
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
