// Package dspbench preserves the pre-plan reference implementations of the
// hot dsp primitives (per-call radix-2 and Bluestein FFTs, frequency-domain
// shaping, per-frame-allocating STFT, the O(n*maxLag) delay search, and
// MFCC extraction with per-frame cosines and a dense filterbank scan) and
// defines the benchmark kernels that compare them against the planned
// engine. The kernels are shared by the `go test -bench` wrappers in
// internal/dsp and by cmd/benchdsp, which emits the checked-in
// BENCH_dsp.json baseline, so the two can never measure different
// workloads.
package dspbench

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand"
	"testing"

	"vibguard/internal/device"
	"vibguard/internal/dsp"
	"vibguard/internal/mfcc"
	"vibguard/internal/sensing"
)

// legacyRadix2 is the historical in-place iterative radix-2 FFT that
// recomputed its bit-reversal permutation and twiddle recurrence on every
// call. It is the bit-exact ancestor of the planned transform.
func legacyRadix2(x []complex128, inverse bool) {
	n := len(x)
	if n <= 1 {
		return
	}
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := sign * 2 * math.Pi / float64(size)
		wStep := cmplx.Rect(1, step)
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
				w *= wStep
			}
		}
	}
}

// legacyBluestein is the historical per-call chirp-z forward transform for
// non-power-of-two lengths: the chirp and the filter spectrum are rebuilt on
// every call and every transform runs through legacyRadix2. The planned
// Bluestein path is its bit-exact descendant.
func legacyBluestein(x []complex128) []complex128 {
	n := len(x)
	m := dsp.NextPow2(2*n - 1)
	chirp := make([]complex128, n)
	for k := range chirp {
		kk := (int64(k) * int64(k)) % int64(2*n)
		angle := -math.Pi * float64(kk) / float64(n)
		chirp[k] = cmplx.Rect(1, angle)
	}
	filt := make([]complex128, m)
	for k := 0; k < n; k++ {
		filt[k] = cmplx.Conj(chirp[k])
	}
	for k := 1; k < n; k++ {
		filt[m-k] = cmplx.Conj(chirp[k])
	}
	legacyRadix2(filt, false)
	a := make([]complex128, m)
	for k := 0; k < n; k++ {
		a[k] = x[k] * chirp[k]
	}
	legacyRadix2(a, false)
	for i := range a {
		a[i] *= filt[i]
	}
	legacyRadix2(a, true)
	invM := 1 / float64(m)
	out := make([]complex128, n)
	for k := range out {
		out[k] = a[k] * chirp[k] * complex(invM, 0)
	}
	return out
}

// FFTLegacy computes the DFT of x with the historical per-call transform
// (fresh output slice, twiddles and chirps recomputed): radix-2 for powers
// of two, Bluestein otherwise.
func FFTLegacy(x []complex128) []complex128 {
	if n := len(x); n&(n-1) != 0 {
		return legacyBluestein(x)
	}
	out := append([]complex128(nil), x...)
	legacyRadix2(out, false)
	return out
}

// IFFTLegacy is the historical radix-2 inverse transform of a power-of-two
// length, including 1/N scaling.
func IFFTLegacy(x []complex128) []complex128 {
	out := append([]complex128(nil), x...)
	legacyRadix2(out, true)
	inv := 1 / float64(len(x))
	for i := range out {
		out[i] = complex(real(out[i])*inv, imag(out[i])*inv)
	}
	return out
}

// PowerSpectrumLegacy computes the single-sided power spectrum of a real
// signal the historical way: a full-length complex transform (radix-2 or
// Bluestein) with per-call buffers, keeping bins 0..n/2.
func PowerSpectrumLegacy(x []float64) []float64 {
	cx := make([]complex128, len(x))
	for i, v := range x {
		cx[i] = complex(v, 0)
	}
	cx = FFTLegacy(cx)
	half := len(x)/2 + 1
	out := make([]float64, half)
	for i := 0; i < half; i++ {
		re, im := real(cx[i]), imag(cx[i])
		out[i] = re*re + im*im
	}
	return out
}

// FrequencyShapeLegacy is the historical dsp.FrequencyShape: a fresh
// zero-padded buffer per call, a full complex transform, the gain applied
// to bins k and m-k, and the inverse transform.
func FrequencyShapeLegacy(x []float64, sampleRate float64, gain func(freqHz float64) float64) []float64 {
	n := len(x)
	if n == 0 {
		return nil
	}
	m := dsp.NextPow2(n)
	buf := make([]complex128, m)
	for i, v := range x {
		buf[i] = complex(v, 0)
	}
	legacyRadix2(buf, false)
	for k := 0; k <= m/2; k++ {
		f := dsp.BinFrequency(k, m, sampleRate)
		g := gain(f)
		buf[k] = complex(real(buf[k])*g, imag(buf[k])*g)
		if k != 0 && k != m/2 {
			buf[m-k] = complex(real(buf[m-k])*g, imag(buf[m-k])*g)
		}
	}
	legacyRadix2(buf, true)
	out := make([]float64, n)
	inv := 1 / float64(m)
	for i := 0; i < n; i++ {
		out[i] = real(buf[i]) * inv
	}
	return out
}

// STFTLegacy computes the power spectrogram with the historical
// implementation: a fresh window, a full complex FFT per frame, and a
// per-frame allocated spectrum copy and output row.
func STFTLegacy(x []float64, cfg dsp.STFTConfig) (*dsp.Spectrogram, error) {
	if err := dsp.ValidateLength(cfg.FFTSize); err != nil {
		return nil, fmt.Errorf("stft: %w", err)
	}
	hop := cfg.HopSize
	if hop <= 0 {
		hop = cfg.FFTSize / 2
	}
	kind := cfg.Window
	if kind == 0 {
		kind = dsp.WindowHann
	}
	if cfg.SampleRate <= 0 {
		return nil, fmt.Errorf("stft: sample rate %v must be positive", cfg.SampleRate)
	}
	if len(x) == 0 {
		return &dsp.Spectrogram{FFTSize: cfg.FFTSize, HopSize: hop, SampleRate: cfg.SampleRate}, nil
	}
	win := dsp.Window(kind, cfg.FFTSize)
	numFrames := 1
	if len(x) > cfg.FFTSize {
		numFrames = 1 + (len(x)-cfg.FFTSize+hop-1)/hop
	}
	half := cfg.FFTSize/2 + 1
	power := make([][]float64, numFrames)
	frame := make([]complex128, cfg.FFTSize)
	for t := 0; t < numFrames; t++ {
		start := t * hop
		for i := 0; i < cfg.FFTSize; i++ {
			v := 0.0
			if start+i < len(x) {
				v = x[start+i] * win[i]
			}
			frame[i] = complex(v, 0)
		}
		spec := make([]complex128, cfg.FFTSize)
		copy(spec, frame)
		legacyRadix2(spec, false)
		row := make([]float64, half)
		for f := 0; f < half; f++ {
			re, im := real(spec[f]), imag(spec[f])
			row[f] = re*re + im*im
		}
		power[t] = row
	}
	return &dsp.Spectrogram{
		Power:      power,
		FFTSize:    cfg.FFTSize,
		HopSize:    hop,
		SampleRate: cfg.SampleRate,
	}, nil
}

// EstimateDelayLegacy is the historical delay search: the direct
// O(n*maxLag) correlation loop followed by an argmax with ties resolving to
// the smallest lag.
func EstimateDelayLegacy(a, b []float64, maxLag int) int {
	if maxLag < 0 {
		maxLag = 0
	}
	best, bestVal := 0, math.Inf(-1)
	for tau := 0; tau <= maxLag; tau++ {
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

// EstimateDelayPacked is the transform delay search the real-input one
// (dsp.EstimateDelayFFT) replaced: a + ib in one m-point complex
// transform, m = NextPow2(max(len(a)+maxLag, len(b))), conj(A)·B from its
// Hermitian halves, and one m-point inverse. Its lags carry the old
// path's bits, so it gives every SyncOffset the old alignment gave.
func EstimateDelayPacked(a, b []float64, maxLag int) int {
	maxLag = max(maxLag, 0)
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	m := dsp.NextPow2(max(len(a)+maxLag, len(b)))
	p, err := dsp.PlanFFT(m)
	if err != nil {
		panic(err)
	}
	f := make([]complex128, m)
	for i, v := range a {
		f[i] = complex(v, 0)
	}
	for i, v := range b {
		f[i] = complex(real(f[i]), v)
	}
	p.Forward(f, f)
	for k := 0; k <= m/2; k++ {
		fk, fmk := f[k], cmplx.Conj(f[(m-k)%m])
		ak, bk := (fk+fmk)*complex(0.5, 0), (fk-fmk)*complex(0, -0.5)
		if f[k] = cmplx.Conj(ak) * bk; k != 0 && k != m/2 {
			f[m-k] = cmplx.Conj(f[k])
		}
	}
	p.Inverse(f, f)
	best, bestVal := 0, math.Inf(-1)
	for tau, v := range f[:maxLag+1] {
		if real(v) > bestVal {
			best, bestVal = tau, real(v)
		}
	}
	return best
}

// DCT2Legacy is the historical dsp.DCT2: the orthonormal type-II DCT of x,
// first numCoeffs coefficients, with every cosine computed inside the
// summation loop. dsp.DCT2Table is its bit-exact descendant.
func DCT2Legacy(x []float64, numCoeffs int) []float64 {
	n := len(x)
	if n == 0 || numCoeffs <= 0 {
		return nil
	}
	if numCoeffs > n {
		numCoeffs = n
	}
	out := make([]float64, numCoeffs)
	scale0 := math.Sqrt(1 / float64(n))
	scale := math.Sqrt(2 / float64(n))
	for k := 0; k < numCoeffs; k++ {
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += x[i] * math.Cos(math.Pi*float64(k)*(float64(i)+0.5)/float64(n))
		}
		if k == 0 {
			out[k] = sum * scale0
		} else {
			out[k] = sum * scale
		}
	}
	return out
}

// MelApplyDense is the historical MelFilterbank.ApplyInto: every filter
// scans every bin of the power spectrum, skipping zero weights.
func MelApplyDense(m *dsp.MelFilterbank, power []float64) []float64 {
	out := make([]float64, m.NumChannels())
	for c := range out {
		sum := 0.0
		for k, w := range m.Weights(c) {
			if w != 0 {
				sum += w * power[k]
			}
		}
		out[c] = sum
	}
	return out
}

// MFCCExtractLegacy is the historical mfcc.Extractor.Extract for cfg: the
// dense filterbank scan, per-frame DCT2Legacy cosines and one allocated
// coefficient vector per frame.
func MFCCExtractLegacy(audio []float64, cfg mfcc.Config) ([][]float64, error) {
	frameLen := int(cfg.FrameLength * cfg.SampleRate)
	shiftLen := int(cfg.FrameShift * cfg.SampleRate)
	if len(audio) < frameLen {
		return nil, nil
	}
	fftSize := dsp.NextPow2(frameLen)
	bank, err := dsp.NewMelFilterbank(cfg.NumFilters, fftSize, cfg.SampleRate, cfg.LowHz, cfg.HighHz)
	if err != nil {
		return nil, err
	}
	plan, err := dsp.PlanRealFFT(fftSize)
	if err != nil {
		return nil, err
	}
	window := dsp.Window(dsp.WindowHamming, frameLen)
	x := audio
	if cfg.PreEmphasis > 0 {
		x = dsp.PreEmphasis(audio, cfg.PreEmphasis)
	}
	numFrames := 1 + (len(x)-frameLen)/shiftLen
	out := make([][]float64, 0, numFrames)
	buf := make([]float64, fftSize)
	scratch := plan.Scratch()
	power := make([]float64, plan.NumBins())
	logE := make([]float64, bank.NumChannels())
	for idx := 0; idx < numFrames; idx++ {
		start := idx * shiftLen
		for i := 0; i < fftSize; i++ {
			if i < frameLen {
				buf[i] = x[start+i] * window[i]
			} else {
				buf[i] = 0
			}
		}
		plan.PowerInto(power, buf, scratch)
		for i, v := range MelApplyDense(bank, power) {
			logE[i] = math.Log(v + 1e-12)
		}
		out = append(out, DCT2Legacy(logE, cfg.NumCoeffs))
	}
	return out, nil
}

// Case is one benchmark kernel: Group matches a Benchmark<Group> wrapper in
// internal/dsp and Name is the sub-benchmark label.
type Case struct {
	Group string
	Name  string
	Fn    func(b *testing.B)
}

// Signal returns the deterministic benchmark input used by every kernel: a
// sine buried in seeded Gaussian noise.
func Signal(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2*math.Pi*float64(i)/37) + 0.3*rng.NormFloat64()
	}
	return x
}

func complexSignal(n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(math.Sin(float64(i)), 0)
	}
	return x
}

// replayLen is an effective-phoneme segment length typical of the replay
// stage (segments run 39-47k samples at 16 kHz). It is not a power of two,
// so its power spectrum takes the Bluestein path, and it pads to a
// 65536-point shaping transform.
const (
	replayLen  = 45040
	replayRate = 16000
)

// ReplayGain is the band-pass magnitude curve the wearable speaker applies
// at 16 kHz (device.NewWearableSpeaker through Loudspeaker.Render), used by
// the FrequencyShape kernels and pins.
func ReplayGain(f float64) float64 {
	const low, high = 180.0, 6500.0
	switch {
	case f < low:
		return (f / low) * (f / low)
	case f > high:
		return math.Max(0, 1-(f-high)/(replayRate/2-high))
	default:
		return 1
	}
}

const (
	delaySignalLen = 16000
	delayShift     = 1600
	delayMaxLag    = 8000
)

func delayPair(n int) (a, b []float64) {
	a = Signal(n, 3)
	b = make([]float64, delayShift+len(a))
	copy(b[delayShift:], a)
	return a, b
}

func benchDelayFFT(n int) func(b *testing.B) {
	return func(b *testing.B) {
		a, bb := delayPair(n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if got := dsp.EstimateDelayFFT(a, bb, delayMaxLag); got != delayShift {
				b.Fatalf("delay %d", got)
			}
		}
	}
}

// Cases returns every benchmark kernel, current engine and legacy reference
// side by side on identical workloads.
func Cases() []Case {
	return []Case{
		{"FFTPlan", "1024", benchPlan(1024)},
		{"FFTPlan", "legacy-1024", func(b *testing.B) {
			src := complexSignal(1024)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				FFTLegacy(src)
			}
		}},
		{"FFTPlan", "65536", benchPlan(65536)},
		{"FFTPlan", "131072", benchPlan(131072)},
		{"FrequencyShape", "45040", func(b *testing.B) {
			x := Signal(replayLen, 5)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dsp.FrequencyShape(x, replayRate, ReplayGain)
			}
		}},
		{"FrequencyShape", "legacy-45040", func(b *testing.B) {
			x := Signal(replayLen, 5)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				FrequencyShapeLegacy(x, replayRate, ReplayGain)
			}
		}},
		{"PowerSpectrum", "45040", func(b *testing.B) {
			x := Signal(replayLen, 6)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dsp.PowerSpectrum(x)
			}
		}},
		{"SenseFeatures", "45040", func(b *testing.B) {
			x := Signal(replayLen, 7)
			w := device.NewFossilGen5()
			cfg := sensing.DefaultConfig()
			rng := rand.New(rand.NewSource(7))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sensing.SenseFeatures(w, x, cfg, rng); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// A loud drive saturates the amplifier noise; the same sound 60 dB
		// quieter does not. Both take the dominance from the shaping pass.
		{"WearableDrive", "loud-45040", benchWearableDrive(1)},
		{"WearableDrive", "quiet-45040", benchWearableDrive(1e-3)},
		{"SenseShared", "3x45040", func(b *testing.B) {
			a := Signal(replayLen, 7)
			bs := [][]float64{Signal(replayLen, 8), Signal(replayLen, 9), Signal(replayLen, 10)}
			w := device.NewFossilGen5()
			cfg := sensing.DefaultConfig()
			rngs := []*rand.Rand{rand.New(rand.NewSource(7)), rand.New(rand.NewSource(8)), rand.New(rand.NewSource(9))}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, p := range sensing.SenseShared(w, a, bs, cfg, rngs) {
					if p.Err != nil {
						b.Fatal(p.Err)
					}
				}
			}
		}},
		{"MFCCExtract", "45840", benchMFCC(false)},
		{"MFCCExtract", "legacy-45840", benchMFCC(true)},
		{"STFT", "64x16-4800", benchSTFT(64, 16, 200, 4800, false)},
		{"STFT", "512x160-16000", benchSTFT(512, 160, 16000, 16000, false)},
		{"STFTLegacy", "64x16-4800", benchSTFT(64, 16, 200, 4800, true)},
		{"STFTLegacy", "512x160-16000", benchSTFT(512, 160, 16000, 16000, true)},
		{"EstimateDelayFFT", "16000x8000", benchDelayFFT(delaySignalLen)},
		// The shape a session's Eq. (5) alignment runs at: a replay-length
		// VA recording over 8,000 lags, a 65,536-point transform.
		{"EstimateDelayFFT", "45040x8000", benchDelayFFT(replayLen)},
		// A fused session's alignment: two wearables, one VA spectrum.
		{"EstimateDelays", "45040x8000x2", func(b *testing.B) {
			a, b1 := delayPair(replayLen)
			bs, lags := [][]float64{b1, append(make([]float64, delayShift/2), b1...)}, []int{delayMaxLag, delayMaxLag}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := dsp.EstimateDelays(a, bs, lags); got[0] != delayShift || got[1] != delayShift*3/2 {
					b.Fatalf("delays %v", got)
				}
			}
		}},
		{"EstimateDelayLegacy", "16000x8000", func(b *testing.B) {
			a, bb := delayPair(delaySignalLen)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := EstimateDelayLegacy(a, bb, delayMaxLag); got != delayShift {
					b.Fatalf("delay %d", got)
				}
			}
		}},
		{"PowerSpectrum", "512", func(b *testing.B) {
			x := Signal(512, 4)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dsp.PowerSpectrum(x)
			}
		}},
		{"PowerSpectrum", "legacy-512", func(b *testing.B) {
			x := Signal(512, 4)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				PowerSpectrumLegacy(x)
			}
		}},
	}
}

// benchWearableDrive measures the deterministic half of one sensing pass
// (speaker render, accelerometer drive) on the replay-length benchmark
// signal scaled by gain.
func benchWearableDrive(gain float64) func(b *testing.B) {
	return func(b *testing.B) {
		x := dsp.Scale(Signal(replayLen, 8), gain)
		w := device.NewFossilGen5()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := w.Drive(x); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchPlan measures one planned forward transform of size n into a
// reused destination.
func benchPlan(n int) func(b *testing.B) {
	return func(b *testing.B) {
		p, err := dsp.PlanFFT(n)
		if err != nil {
			b.Fatal(err)
		}
		src := complexSignal(n)
		dst := make([]complex128, n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Forward(dst, src)
		}
	}
}

// mfccLen is a VA recording of about 2.9 s at 16 kHz, the length the
// segmentation stage runs MFCC extraction on (285 frames).
const mfccLen = 45840

// benchMFCC measures one MFCC extraction of a recording: the extractor's
// precomputed DCT table and range-limited filterbank, or the legacy
// per-frame cosines and dense scan.
func benchMFCC(legacy bool) func(b *testing.B) {
	return func(b *testing.B) {
		x := Signal(mfccLen, 8)
		cfg := mfcc.DefaultConfig()
		e, err := mfcc.NewExtractor(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if legacy {
				_, err = MFCCExtractLegacy(x, cfg)
			} else {
				_, err = e.Extract(x)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

func benchSTFT(fftSize, hop int, rate float64, n int, legacy bool) func(b *testing.B) {
	return func(b *testing.B) {
		x := Signal(n, int64(fftSize))
		cfg := dsp.STFTConfig{FFTSize: fftSize, HopSize: hop, SampleRate: rate}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			if legacy {
				_, err = STFTLegacy(x, cfg)
			} else {
				_, err = dsp.STFT(x, cfg)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}
