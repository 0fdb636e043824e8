package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
)

// Biquad is a second-order IIR filter section in direct form II transposed.
// The zero value is an identity filter only after normalization; construct
// instances with the NewHighPass/NewBandPass helpers.
type Biquad struct {
	b0, b1, b2 float64
	a1, a2     float64
	z1, z2     float64
}

// NewHighPass returns a Butterworth-style high-pass biquad with the given
// cutoff frequency and quality factor. Q of 1/sqrt(2) gives the maximally
// flat response.
func NewHighPass(cutoff, sampleRate, q float64) (*Biquad, error) {
	if err := validateCutoff(cutoff, sampleRate); err != nil {
		return nil, fmt.Errorf("highpass: %w", err)
	}
	w0 := 2 * math.Pi * cutoff / sampleRate
	alpha := math.Sin(w0) / (2 * q)
	cosW0 := math.Cos(w0)
	a0 := 1 + alpha
	return &Biquad{
		b0: (1 + cosW0) / 2 / a0,
		b1: -(1 + cosW0) / a0,
		b2: (1 + cosW0) / 2 / a0,
		a1: -2 * cosW0 / a0,
		a2: (1 - alpha) / a0,
	}, nil
}

// NewBandPass returns a constant-peak-gain band-pass biquad centered at
// the given frequency.
func NewBandPass(center, sampleRate, q float64) (*Biquad, error) {
	if err := validateCutoff(center, sampleRate); err != nil {
		return nil, fmt.Errorf("bandpass: %w", err)
	}
	w0 := 2 * math.Pi * center / sampleRate
	alpha := math.Sin(w0) / (2 * q)
	cosW0 := math.Cos(w0)
	a0 := 1 + alpha
	return &Biquad{
		b0: alpha / a0,
		b1: 0,
		b2: -alpha / a0,
		a1: -2 * cosW0 / a0,
		a2: (1 - alpha) / a0,
	}, nil
}

func validateCutoff(cutoff, sampleRate float64) error {
	if sampleRate <= 0 {
		return fmt.Errorf("sample rate %v must be positive", sampleRate)
	}
	if cutoff <= 0 || cutoff >= sampleRate/2 {
		return fmt.Errorf("cutoff %vHz outside (0, %vHz)", cutoff, sampleRate/2)
	}
	return nil
}

// Reset clears the filter state.
func (f *Biquad) Reset() { f.z1, f.z2 = 0, 0 }

// ProcessSample filters one sample, advancing the internal state.
func (f *Biquad) ProcessSample(x float64) float64 {
	y := f.b0*x + f.z1
	f.z1 = f.b1*x - f.a1*y + f.z2
	f.z2 = f.b2*x - f.a2*y
	return y
}

// Process filters the whole signal into a new slice, resetting state first.
func (f *Biquad) Process(x []float64) []float64 {
	f.Reset()
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = f.ProcessSample(v)
	}
	return out
}

// Response returns the filter's magnitude response at frequency f for the
// given sample rate.
func (f *Biquad) Response(freq, sampleRate float64) float64 {
	w := 2 * math.Pi * freq / sampleRate
	cos1, sin1 := math.Cos(w), math.Sin(w)
	cos2, sin2 := math.Cos(2*w), math.Sin(2*w)
	numRe := f.b0 + f.b1*cos1 + f.b2*cos2
	numIm := -(f.b1*sin1 + f.b2*sin2)
	denRe := 1 + f.a1*cos1 + f.a2*cos2
	denIm := -(f.a1*sin1 + f.a2*sin2)
	num := math.Hypot(numRe, numIm)
	den := math.Hypot(denRe, denIm)
	if den == 0 {
		return math.Inf(1)
	}
	return num / den
}

// FrequencyShape filters a real signal in the frequency domain by
// multiplying each FFT bin magnitude with gain(freq). It is used to apply
// measured transfer functions (barrier transmission, microphone and
// accelerometer responses) that are easier to express as magnitude curves
// than as rational filters. Phase is preserved.
//
// The signal is zero-padded to m = NextPow2(len(x)) and its even and odd
// samples are packed into one m/2-point complex transform each way
// (RealFFTPlan): half the butterfly work of a complex m-point pair, with
// rounding bounded against it (dspbench.FrequencyShapeLegacy). The buffers
// come from the plan's pools, so a call allocates only its result.
func FrequencyShape(x []float64, sampleRate float64, gain func(freqHz float64) float64) []float64 {
	out, _, _ := ShapeDecimate(x, sampleRate, gain, 1, -1)
	return out
}

// ShapeDecimate is FrequencyShape followed by keeping every factor-th
// sample, computing only the samples kept. Keeping every g-th sample of the
// m-point shaped signal aliases its spectrum onto l = m/g bins, F[r] =
// sum_q Y[r+q·l], so the gained spectrum is folded by g, the largest
// power of two dividing factor (at most m/2), inverted at l points, and
// every (factor/g)-th sample of that is kept. factor must be positive.
// The shaping pass (shapeHalf) also sums |X[k]|², x zero-padded to m and
// before the gain, over bins 1..FrequencyBin(cutHz, m, sampleRate) (low)
// and 1..m/2 (total); the sums overflow to +Inf past |X[k]| ≈ 1e154. A
// negative cutHz skips the sums (both come back 0).
// The gain is sampled into a pooled table of the m/2+1 bins first; a
// caller that shapes many signals with one curve can keep that table
// (GainTable) and call ShapeDecimateTable.
func ShapeDecimate(x []float64, sampleRate float64, gain func(freqHz float64) float64, factor int, cutHz float64) (out []float64, low, total float64) {
	if len(x) == 0 {
		return nil, 0, 0
	}
	p := mustPlanRealFFT(NextPow2(len(x)))
	g := p.tables.Get().(*[]float64)
	defer p.tables.Put(g)
	*g = GainTable((*g)[:0], p.n, sampleRate, gain)
	return ShapeDecimateTable(x, sampleRate, *g, factor, cutHz)
}

// GainTable appends gain at the frequencies of bins 0..m/2 of an m-point
// transform (m a power of two) to dst in the transforms' layout, bin m/2
// last: the table ShapeDecimateTable takes.
func GainTable(dst []float64, m int, sampleRate float64, gain func(freqHz float64) float64) []float64 {
	perm := mustPlanFFT(max(m/2, 1)).perm
	for i := 0; i <= m/2; i++ {
		k := m / 2
		if i < len(perm) {
			k = int(perm[i])
		}
		dst = append(dst, gain(BinFrequency(k, m, sampleRate)))
	}
	return dst
}

// ShapeDecimateTable is ShapeDecimate with the gain curve sampled in
// advance: gains = GainTable(nil, NextPow2(len(x)), sampleRate, gain)
// gives the same bits.
func ShapeDecimateTable(x []float64, sampleRate float64, gains []float64, factor int, cutHz float64) (out []float64, low, total float64) {
	if len(x) == 0 {
		return nil, 0, 0
	}
	b := NewShapeBuffer(x)
	out, low, total = b.ShapeDecimate(sampleRate, gains, factor, cutHz)
	b.Release()
	return out, low, total
}

// A ShapeBuffer holds a real signal of n > 0 samples, zero-padded to m =
// NextPow2(n), in a pooled transform buffer, so that one signal can be
// shaped, changed in place and shaped again without leaving it. Release
// returns the buffer.
type ShapeBuffer struct {
	p   *RealFFTPlan
	buf *[]complex128
	n   int
}

// NewShapeBuffer copies x, which must not be empty, into a buffer.
func NewShapeBuffer(x []float64) ShapeBuffer {
	p := mustPlanRealFFT(NextPow2(len(x)))
	b := ShapeBuffer{p, mustPlanFFT(max(p.n/2, 1)).getScratch(), len(x)}
	pack(*b.buf, x)
	return b
}

// Samples returns the signal's samples; they may be changed in place.
func (b ShapeBuffer) Samples() []float64 { return floats(*b.buf)[:b.n] }

// Release returns the buffer to its pool; b is not used after.
func (b ShapeBuffer) Release() { mustPlanFFT(len(*b.buf)).putScratch(b.buf) }

// Shape is FrequencyShape in place, with the gain curve sampled in advance
// (GainTable of m): the samples become the shaped signal, with
// FrequencyShape's bits, and the padding is zero again.
func (b ShapeBuffer) Shape(gains []float64) {
	b.shapeInto(b.Samples(), 0, gains, 1, -1)
	clear(floats(*b.buf)[b.n:])
}

// ShapeDecimate is ShapeDecimateTable of the samples, whose buffer it
// uses up.
func (b ShapeBuffer) ShapeDecimate(sampleRate float64, gains []float64, factor int, cutHz float64) (out []float64, low, total float64) {
	return b.shapeInto(make([]float64, (b.n+factor-1)/factor), sampleRate, gains, factor, cutHz)
}

func (b ShapeBuffer) shapeInto(out []float64, sampleRate float64, gains []float64, factor int, cutHz float64) ([]float64, float64, float64) {
	p, y, m := b.p, *b.buf, b.p.n
	if m == 1 {
		out[0] = real(y[0]) * gains[0]
		return out, 0, 0
	}
	kern.forward(y, p.half.fwd)
	cut := FrequencyBin(cutHz, m, sampleRate)
	if cutHz < 0 {
		cut = -1
	}
	low, total := p.shapeHalf(y, gains, cut)
	fold := min(factor&-factor, m/2)
	if fold == 1 {
		p.inverseInto(out, y, factor)
		return out, low, total
	}
	l := m / fold
	q := mustPlanFFT(l)
	fbuf := q.getScratch()
	defer q.putScratch(fbuf)
	f := *fbuf
	clear(f)
	// The real bins 0 and m/2 both alias onto bin 0.
	f[0] = complex(real(y[0])+imag(y[0]), 0)
	rev := mustPlanFFT(fold / 2).perm
	foldPairs(f, y, rev, 0, 2)
	kern.fold(f, y, rev, 2, l)
	kern.butterflies(f, q.inv)
	step, inv := factor/fold, 1/float64(m)
	for i := range out {
		out[i] = real(f[i*step]) * inv
	}
	return out, low, total
}

// foldPairs adds the bins that alias onto bin r of an l-point spectrum
// (l = len(f)) to the accumulator at r's position P, lo <= P < hi: the
// direct bins r+q·l and the conjugates of the bins l-r+q·l, 0 <= q < g =
// len(y)/l, for q in order, each q's direct term first for r <= l/2 and
// its conjugate term first above. In the layout both sets are blocks of g
// entries, P's and its mirror's, with bin q at offset rev[q].
func foldPairs(f, y []complex128, rev []int32, lo, hi int) {
	g := len(y) / len(f)
	for P := lo; P < hi; P++ {
		M := P // the mirror position
		if P > 1 {
			M = 3<<(bits.Len(uint(P))-1) - 1 - P
		}
		for q, t := range rev {
			a, b := y[P*g+int(t)], cmplx.Conj(y[M*g+int(t)])
			if P > 1 && P&1 == 1 {
				a, b = b, a
			}
			if P|q != 0 { // y[0] holds the real bins
				f[P] += a
				f[P] += b
			}
		}
	}
}
