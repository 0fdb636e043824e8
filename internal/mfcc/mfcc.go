// Package mfcc extracts Mel-frequency cepstral coefficients for the
// phoneme detector, following the configuration of Section V-B: 25 ms
// frames shifted by 10 ms, 40 mel filterbank channels restricted to
// 0-900 Hz (so detection still works on thru-barrier sounds that lack
// high-frequency energy), and 14 cepstral coefficients per frame.
package mfcc

import (
	"fmt"
	"math"

	"vibguard/internal/dsp"
)

// Config parameterizes MFCC extraction.
type Config struct {
	// SampleRate of the input audio in Hz.
	SampleRate float64
	// FrameLength and FrameShift in seconds.
	FrameLength, FrameShift float64
	// NumFilters is the number of mel filterbank channels.
	NumFilters int
	// NumCoeffs is the number of cepstral coefficients kept per frame.
	NumCoeffs int
	// HighHz is the top of the analyzed band, which starts at 0 Hz.
	HighHz float64
	// PreEmphasis coefficient (0 disables).
	PreEmphasis float64
}

// DefaultConfig returns the paper's configuration for 16 kHz audio.
func DefaultConfig() Config {
	return Config{
		SampleRate:  16000,
		FrameLength: 0.025,
		FrameShift:  0.010,
		NumFilters:  40,
		NumCoeffs:   14,
		HighHz:      900,
		PreEmphasis: 0.97,
	}
}

// Validate checks the configuration. Every float check is written so
// that NaN fails it.
func (c *Config) Validate() error {
	if !(c.SampleRate > 0) {
		return fmt.Errorf("mfcc: sample rate %v must be positive", c.SampleRate)
	}
	if !(c.FrameLength*c.SampleRate >= 1 && c.FrameShift*c.SampleRate >= 1) {
		return fmt.Errorf("mfcc: frame length %v and shift %v must each span a sample at %v Hz", c.FrameLength, c.FrameShift, c.SampleRate)
	}
	if c.NumFilters <= 0 || c.NumCoeffs <= 0 {
		return fmt.Errorf("mfcc: filters %d and coeffs %d must be positive", c.NumFilters, c.NumCoeffs)
	}
	if c.NumCoeffs > c.NumFilters {
		return fmt.Errorf("mfcc: coeffs %d exceed filters %d", c.NumCoeffs, c.NumFilters)
	}
	if !(c.HighHz > 0 && c.HighHz <= c.SampleRate/2) {
		return fmt.Errorf("mfcc: band [0, %v] invalid", c.HighHz)
	}
	if !(c.PreEmphasis >= 0 && c.PreEmphasis < 1) {
		return fmt.Errorf("mfcc: pre-emphasis %v outside [0, 1)", c.PreEmphasis)
	}
	return nil
}

// Extractor computes MFCC frame sequences. The extractor itself is
// immutable after construction (the FFT plan, filterbank and DCT table are
// shared, read-only state), so one extractor may serve concurrent
// goroutines; each Extract call allocates its own scratch buffers once and
// reuses them across its frames.
type Extractor struct {
	cfg      Config
	frameLen int
	shiftLen int
	fftSize  int
	window   []float64
	bank     *dsp.MelFilterbank
	plan     *dsp.RealFFTPlan
	dct      *dsp.DCT2Table
}

// NewExtractor builds an extractor for the given configuration.
func NewExtractor(cfg Config) (*Extractor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	frameLen := int(cfg.FrameLength * cfg.SampleRate)
	shiftLen := int(cfg.FrameShift * cfg.SampleRate)
	fftSize := dsp.NextPow2(frameLen)
	bank, err := dsp.NewMelFilterbank(cfg.NumFilters, fftSize, cfg.SampleRate, 0, cfg.HighHz)
	if err != nil {
		return nil, fmt.Errorf("mfcc: %w", err)
	}
	plan, err := dsp.PlanRealFFT(fftSize)
	if err != nil {
		return nil, fmt.Errorf("mfcc: %w", err)
	}
	return &Extractor{
		cfg:      cfg,
		frameLen: frameLen,
		shiftLen: shiftLen,
		fftSize:  fftSize,
		window:   dsp.Window(dsp.WindowHamming, frameLen),
		bank:     bank,
		plan:     plan,
		dct:      dsp.NewDCT2Table(cfg.NumFilters, cfg.NumCoeffs),
	}, nil
}

// Config returns the extractor configuration.
func (e *Extractor) Config() Config { return e.cfg }

// FrameLength returns the frame length in samples (400 at 16 kHz/25 ms).
func (e *Extractor) FrameLength() int { return e.frameLen }

// FrameShift returns the frame shift in samples (160 at 16 kHz/10 ms).
func (e *Extractor) FrameShift() int { return e.shiftLen }

// NumFrames returns how many MFCC frames Extract will produce for n input
// samples.
func (e *Extractor) NumFrames(n int) int {
	if n < e.frameLen {
		return 0
	}
	return 1 + (n-e.frameLen)/e.shiftLen
}

// Extract computes the MFCC sequence of an audio signal: one vector of
// NumCoeffs coefficients per frame. Signals shorter than one frame yield
// an empty (nil) result.
func (e *Extractor) Extract(audio []float64) ([][]float64, error) {
	if len(audio) < e.frameLen {
		return nil, nil
	}
	numFrames := e.NumFrames(len(audio))
	out := make([][]float64, numFrames)
	// All per-frame scratch is hoisted out of the loop and reused: the
	// planned transform writes into the same power buffer every frame, and
	// the coefficient rows are carved from one backing slice, so nothing is
	// allocated per frame.
	nc := e.dct.NumCoeffs()
	coeffs := make([]float64, numFrames*nc)
	// Past the frame, buf stays zero; the filterbank reads only the power
	// bins up to its last, so only those are unpacked and the rest stay 0.
	buf := make([]float64, e.fftSize)
	scratch := e.plan.Scratch()
	power := make([]float64, e.plan.NumBins())
	bins := e.bank.LastBin() + 1
	energies := make([]float64, e.bank.NumChannels())
	logE := make([]float64, e.bank.NumChannels())
	c, prev := e.cfg.PreEmphasis, 0.0
	for idx := 0; idx < numFrames; idx++ {
		start := idx * e.shiftLen
		if start > 0 {
			prev = audio[start-1]
		}
		emphasize(buf, audio[start:start+e.frameLen], e.window, c, prev)
		e.plan.LowPowerInto(power, buf, scratch, bins)
		if _, err := e.bank.ApplyInto(energies, power); err != nil {
			return nil, fmt.Errorf("mfcc: %w", err)
		}
		for i := 0; i < len(energies); {
			i = logLanes(logE, energies, 1e-12, i)
			for end := min(i+4, len(energies)); i < end; i++ {
				logE[i] = math.Log(energies[i] + 1e-12)
			}
		}
		out[idx] = e.dct.Apply(coeffs[idx*nc:][:nc:nc], logE)
	}
	return out, nil
}

// Extract's per-frame passes; mfcc_amd64.go may swap in YMM kernels with the
// same bits. logLanes returns where it stopped; the scalar loop goes on.
var (
	emphasize = emphasizeGeneric
	logLanes  = func(dst, src []float64, floor float64, i int) int { return i }
)

// emphasizeGeneric writes (x[i] - c·x[i-1])·w[i] with x[-1] = prev; c = 0
// leaves x as it is.
func emphasizeGeneric(dst, x, w []float64, c, prev float64) {
	for i, wi := range w {
		v := x[i]
		if c > 0 {
			v, prev = v-c*prev, v
		}
		dst[i] = v * wi
	}
}
