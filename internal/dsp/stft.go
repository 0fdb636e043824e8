package dsp

import "fmt"

// Spectrogram is a time-frequency power representation: Power[t][f] holds
// the squared magnitude of frequency bin f in frame t. NumBins is
// FFTSize/2+1; bin f covers frequency f*SampleRate/FFTSize.
//
// Spectrograms produced by this package store all frames in one contiguous
// backing array (Power rows are consecutive slices of it), which keeps
// construction to a single bulk allocation and makes whole-spectrogram
// scans cache-friendly. The [][]float64 shape is preserved so external
// construction from independent rows keeps working.
type Spectrogram struct {
	Power      [][]float64
	FFTSize    int
	HopSize    int
	SampleRate float64
}

// newSpectrogramFrames returns a frames x bins Power matrix carved out of
// one contiguous allocation.
func newSpectrogramFrames(frames, bins int) [][]float64 {
	power := make([][]float64, frames)
	backing := make([]float64, frames*bins)
	for t := range power {
		power[t] = backing[t*bins : (t+1)*bins : (t+1)*bins]
	}
	return power
}

// NumFrames returns the number of time frames.
func (s *Spectrogram) NumFrames() int { return len(s.Power) }

// NumBins returns the number of frequency bins per frame.
func (s *Spectrogram) NumBins() int {
	if len(s.Power) == 0 {
		return 0
	}
	return len(s.Power[0])
}

// BinFrequency returns the center frequency in Hz of bin f.
func (s *Spectrogram) BinFrequency(f int) float64 {
	return BinFrequency(f, s.FFTSize, s.SampleRate)
}

// Clone returns a deep copy of the spectrogram (contiguously backed).
func (s *Spectrogram) Clone() *Spectrogram {
	out := &Spectrogram{
		Power:      newSpectrogramFrames(s.NumFrames(), s.NumBins()),
		FFTSize:    s.FFTSize,
		HopSize:    s.HopSize,
		SampleRate: s.SampleRate,
	}
	for i, row := range s.Power {
		copy(out.Power[i], row)
	}
	return out
}

// CropBelow removes all bins whose center frequency is <= cutoff Hz,
// returning a new spectrogram. The paper crops <= 5 Hz to suppress the
// accelerometer's low-frequency sensitivity artifact and body-motion
// interference (Section VI-B).
func (s *Spectrogram) CropBelow(cutoff float64) *Spectrogram {
	start := 0
	for start < s.NumBins() && s.BinFrequency(start) <= cutoff {
		start++
	}
	out := &Spectrogram{FFTSize: s.FFTSize, HopSize: s.HopSize, SampleRate: s.SampleRate}
	out.Power = newSpectrogramFrames(s.NumFrames(), s.NumBins()-start)
	for i, row := range s.Power {
		copy(out.Power[i], row[start:])
	}
	return out
}

// MaxValue returns the maximum power value over all frames and bins (0 for
// an empty spectrogram).
func (s *Spectrogram) MaxValue() float64 {
	max := 0.0
	for _, row := range s.Power {
		for _, v := range row {
			if v > max {
				max = v
			}
		}
	}
	return max
}

// Normalize divides every value by the spectrogram maximum in place, so the
// result lies in [0, 1]. A zero spectrogram is left unchanged. This is the
// vibration-domain normalization of Section VI-C that removes the scale
// differences caused by varying user-to-VA distances.
func (s *Spectrogram) Normalize() {
	max := s.MaxValue()
	if max <= 0 {
		return
	}
	inv := 1 / max
	for _, row := range s.Power {
		for i := range row {
			row[i] *= inv
		}
	}
}

// STFTConfig configures short-time Fourier analysis.
type STFTConfig struct {
	// FFTSize is both the analysis window length and the FFT length.
	// Must be a positive power of two.
	FFTSize int
	// HopSize is the frame advance in samples. Defaults to FFTSize/2.
	HopSize int
	// Window selects the analysis window. Defaults to Hann.
	Window WindowKind
	// SampleRate is the sampling rate of the input in Hz.
	SampleRate float64
}

func (c *STFTConfig) withDefaults() (STFTConfig, error) {
	cfg := *c
	if err := ValidateLength(cfg.FFTSize); err != nil {
		return cfg, fmt.Errorf("stft: %w", err)
	}
	if cfg.HopSize <= 0 {
		cfg.HopSize = cfg.FFTSize / 2
	}
	if cfg.Window == 0 {
		cfg.Window = WindowHann
	}
	if cfg.SampleRate <= 0 {
		return cfg, fmt.Errorf("stft: sample rate %v must be positive", cfg.SampleRate)
	}
	return cfg, nil
}

// STFT computes the power spectrogram of x. Frames that would run past the
// end of the signal are zero-padded, so even a short signal yields at least
// one frame.
//
// The analysis runs on the planned real-input FFT engine: the window, the
// transform plan, one frame buffer, and one transform scratch buffer are
// shared across all frames, and the output rows live in a single contiguous
// backing array, so the per-frame cost is pure butterfly work with no
// allocation.
func STFT(x []float64, cfg STFTConfig) (*Spectrogram, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if len(x) == 0 {
		return &Spectrogram{FFTSize: c.FFTSize, HopSize: c.HopSize, SampleRate: c.SampleRate}, nil
	}
	plan := mustPlanRealFFT(c.FFTSize)
	win := cachedWindow(c.Window, c.FFTSize)
	numFrames := 1
	if len(x) > c.FFTSize {
		numFrames = 1 + (len(x)-c.FFTSize+c.HopSize-1)/c.HopSize
	}
	power := newSpectrogramFrames(numFrames, plan.NumBins())
	frame := make([]float64, c.FFTSize)
	scratch := plan.Scratch()
	for t := 0; t < numFrames; t++ {
		start := t * c.HopSize
		n := len(x) - start
		if n > c.FFTSize {
			n = c.FFTSize
		}
		if n < 0 {
			n = 0
		}
		for i := 0; i < n; i++ {
			frame[i] = x[start+i] * win[i]
		}
		for i := n; i < c.FFTSize; i++ {
			frame[i] = 0
		}
		plan.PowerInto(power[t], frame, scratch)
	}
	return &Spectrogram{
		Power:      power,
		FFTSize:    c.FFTSize,
		HopSize:    c.HopSize,
		SampleRate: c.SampleRate,
	}, nil
}
