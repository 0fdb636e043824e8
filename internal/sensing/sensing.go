// Package sensing implements the vibration-domain feature extraction of
// Section VI-B: the wearable replays audio through its built-in speaker,
// captures the conductive vibration with its accelerometer, high-pass
// filters the measurement, derives a 64-point STFT spectrogram, crops the
// sub-5 Hz accelerometer artifact band, and max-normalizes the result so
// features from different recording distances are comparable.
package sensing

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"vibguard/internal/device"
	"vibguard/internal/dsp"
	"vibguard/internal/obs"
)

// Stage timers of the "pipeline.stage.*" family (see internal/core/obs.go):
// replay is the cross-domain sensing pass (speaker replay + accelerometer
// capture), stft the whole feature extraction (high-pass, STFT, crop,
// normalization). Observations are lock-free and allocation-free, so the
// parallel scoring workers share these handles without contention.
var (
	stageReplay = obs.Default().StageTimer("pipeline.stage.replay")
	stageSTFT   = obs.Default().StageTimer("pipeline.stage.stft")
)

// Config parameterizes vibration-domain feature extraction.
type Config struct {
	// FFTSize is the STFT window and FFT length (64 in the paper).
	FFTSize int
	// HopSize is the STFT hop (defaults to FFTSize/2).
	HopSize int
	// CropHz removes spectrogram bins at or below this frequency
	// (5 Hz in the paper, suppressing the accelerometer artifact and
	// body-motion interference).
	CropHz float64
	// HighPassHz is the cutoff of the preprocessing high-pass filter on
	// the raw accelerometer signal (0 disables).
	HighPassHz float64
	// Normalize applies max-normalization to the cropped spectrogram.
	Normalize bool
	// BinStandardize subtracts each frequency bin's temporal mean so the
	// correlation compares time-varying structure. The stationary
	// expected spectrum of a capture (the coupling curve shaping ambient
	// noise and amplifier noise) is identical on both devices and would
	// otherwise correlate even between two noise-only captures.
	BinStandardize bool
}

// DefaultConfig returns the paper's feature configuration.
func DefaultConfig() Config {
	return Config{FFTSize: 64, HopSize: 16, CropHz: 5, HighPassHz: 5, Normalize: true, BinStandardize: true}
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if err := dsp.ValidateLength(c.FFTSize); err != nil {
		return fmt.Errorf("sensing: %w", err)
	}
	if c.HopSize < 0 {
		return fmt.Errorf("sensing: hop %d must be non-negative", c.HopSize)
	}
	if c.CropHz < 0 || c.CropHz >= device.AccelSampleRate/2 {
		return fmt.Errorf("sensing: crop %vHz outside [0, %v)", c.CropHz, device.AccelSampleRate/2)
	}
	if c.HighPassHz < 0 || c.HighPassHz >= device.AccelSampleRate/2 {
		return fmt.Errorf("sensing: highpass %vHz outside [0, %v)", c.HighPassHz, device.AccelSampleRate/2)
	}
	return nil
}

// ExtractFeatures converts a raw 200 Hz vibration signal into the
// normalized, cropped spectrogram features of Section VI-B.
func ExtractFeatures(vib []float64, cfg Config) (*dsp.Spectrogram, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	x := vib
	if cfg.HighPassHz > 0 {
		hp, err := dsp.NewHighPass(cfg.HighPassHz, device.AccelSampleRate, math.Sqrt2/2)
		if err != nil {
			return nil, fmt.Errorf("sensing: %w", err)
		}
		x = hp.Process(vib)
	}
	spec, err := dsp.STFT(x, dsp.STFTConfig{
		FFTSize:    cfg.FFTSize,
		HopSize:    cfg.HopSize,
		SampleRate: device.AccelSampleRate,
	})
	if err != nil {
		return nil, fmt.Errorf("sensing: %w", err)
	}
	if cfg.CropHz > 0 {
		spec = spec.CropBelow(cfg.CropHz)
	}
	if cfg.BinStandardize && spec.NumFrames() > 1 {
		bins := spec.NumBins()
		means := make([]float64, bins)
		for _, row := range spec.Power {
			for k, v := range row {
				means[k] += v
			}
		}
		inv := 1 / float64(spec.NumFrames())
		for k := range means {
			means[k] *= inv
		}
		for _, row := range spec.Power {
			for k := range row {
				row[k] -= means[k]
			}
		}
	}
	if cfg.Normalize {
		spec.Normalize()
	}
	return spec, nil
}

// SenseFeatures runs one full cross-domain sensing pass: replay the audio
// on the wearable, capture the vibration, and extract features.
func SenseFeatures(w *device.Wearable, audio []float64, cfg Config, rng *rand.Rand) (*dsp.Spectrogram, error) {
	sp := stageReplay.Start()
	vib, err := w.SenseVibration(audio, rng)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("sensing: %w", err)
	}
	return extract(vib, cfg)
}

// Pair is the features of one sensing pair of SenseShared: the shared
// recording's (A) and the device's own (B), or the error that stopped the
// pair.
type Pair struct {
	A, B *dsp.Spectrogram
	Err  error
}

// SenseShared runs the sensing passes of one shared recording a against
// each of the recordings bs, as one pair per b that draws from its own
// rng. Pair i — its features, its error and (on success) the state it
// leaves rngs[i] in — is bit-identical to SenseFeatures on a followed by
// SenseFeatures on bs[i] with rngs[i]. Only the accelerometer noise draws
// from an rng, so the deterministic drives (speaker replay and noise-free
// capture) run once for a and once per b, all concurrently, the bs' on
// forked goroutines. Then, pair by pair, a's noise is drawn on a copy of
// a's drive, then b's noise. The replay stage is observed once, for the
// time the caller waits for every capture.
func SenseShared(w *device.Wearable, a []float64, bs [][]float64, cfg Config, rngs []*rand.Rand) []Pair {
	if len(bs) == 0 {
		return nil
	}
	sp := stageReplay.Start()
	drives := make([]device.Drive, len(bs))
	errs := make([]error, len(bs))
	var wg sync.WaitGroup
	wg.Add(len(bs))
	for i, b := range bs {
		go func() {
			defer wg.Done()
			drives[i], errs[i] = w.Drive(b)
		}()
	}
	driveA, errA := w.Drive(a)
	wg.Wait()
	pairs := make([]Pair, len(bs))
	if errA != nil {
		sp.End()
		for i := range pairs {
			pairs[i].Err = fmt.Errorf("sensing: %w", errA)
		}
		return pairs
	}
	vibA := make([][]float64, len(bs))
	vibB := make([][]float64, len(bs))
	for i, rng := range rngs[:len(bs)] {
		vibA[i] = w.Accel.AddNoise(driveA.Copy(), rng)
		if errs[i] == nil {
			vibB[i] = w.Accel.AddNoise(drives[i], rng)
		}
	}
	sp.End()
	// Errors are reported in the sequential order: a's capture, a's
	// features, b's capture, b's features.
	for i := range pairs {
		p := &pairs[i]
		if p.A, p.Err = extract(vibA[i], cfg); p.Err != nil {
			p.A = nil
			continue
		}
		if errs[i] != nil {
			p.A, p.Err = nil, fmt.Errorf("sensing: %w", errs[i])
			continue
		}
		if p.B, p.Err = extract(vibB[i], cfg); p.Err != nil {
			p.A, p.B = nil, nil
		}
	}
	return pairs
}

// extract is ExtractFeatures timed as the stft stage.
func extract(vib []float64, cfg Config) (*dsp.Spectrogram, error) {
	sp := stageSTFT.Start()
	feat, err := ExtractFeatures(vib, cfg)
	sp.End()
	return feat, err
}
