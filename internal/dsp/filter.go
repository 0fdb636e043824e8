package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Biquad is a second-order IIR filter section in direct form II transposed.
// The zero value is an identity filter only after normalization; construct
// instances with the NewHighPass/NewLowPass/NewBandPass helpers.
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

// NewLowPass returns a Butterworth-style low-pass biquad.
func NewLowPass(cutoff, sampleRate, q float64) (*Biquad, error) {
	if err := validateCutoff(cutoff, sampleRate); err != nil {
		return nil, fmt.Errorf("lowpass: %w", err)
	}
	w0 := 2 * math.Pi * cutoff / sampleRate
	alpha := math.Sin(w0) / (2 * q)
	cosW0 := math.Cos(w0)
	a0 := 1 + alpha
	return &Biquad{
		b0: (1 - cosW0) / 2 / a0,
		b1: (1 - cosW0) / a0,
		b2: (1 - cosW0) / 2 / a0,
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

// PreEmphasis applies the standard first-order pre-emphasis filter
// y[n] = x[n] - coef*x[n-1] used before MFCC extraction.
func PreEmphasis(x []float64, coef float64) []float64 {
	out := make([]float64, len(x))
	prev := 0.0
	for i, v := range x {
		out[i] = v - coef*prev
		prev = v
	}
	return out
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
	g := p.gains.Get().(*[]float64)
	defer p.gains.Put(g)
	*g = GainTable((*g)[:0], p.n, sampleRate, gain)
	return ShapeDecimateTable(x, sampleRate, *g, factor, cutHz)
}

// GainTable appends gain at the frequencies of bins 0..m/2 of an m-point
// transform (m a power of two) to dst: the table ShapeDecimateTable takes.
func GainTable(dst []float64, m int, sampleRate float64, gain func(freqHz float64) float64) []float64 {
	for k := 0; k <= m/2; k++ {
		dst = append(dst, gain(BinFrequency(k, m, sampleRate)))
	}
	return dst
}

// ShapeDecimateTable is ShapeDecimate with the gain curve sampled in
// advance: gains = GainTable(nil, NextPow2(len(x)), sampleRate, gain)
// gives the same bits.
func ShapeDecimateTable(x []float64, sampleRate float64, gains []float64, factor int, cutHz float64) (out []float64, low, total float64) {
	n := len(x)
	if n == 0 {
		return nil, 0, 0
	}
	out = make([]float64, (n+factor-1)/factor)
	m := NextPow2(n)
	if m == 1 {
		out[0] = x[0] * gains[0]
		return out, 0, 0
	}
	p := mustPlanRealFFT(m)
	buf := p.half.getScratch()
	defer p.half.putScratch(buf)
	y := *buf
	p.half.pack(y, x)
	kern.butterflies(y, p.half.fwd)
	cut := FrequencyBin(cutHz, m, sampleRate)
	if cutHz < 0 {
		cut = -1
	}
	low, total = p.shapeHalf(y, gains, cut)
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
	kern.fold(f, y)
	q.transform(f, q.inv)
	step, inv := factor/fold, 1/float64(m)
	for i := range out {
		out[i] = real(f[i*step]) * inv
	}
	return out, low, total
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
