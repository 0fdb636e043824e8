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
	// FrameNormalize divides every frame by its total power, cancelling
	// per-frame amplitude envelopes so the correlation compares spectral
	// shape: a shared loudness envelope (which even two noise-only
	// captures of the same command inherit through the segment fades)
	// otherwise masquerades as similarity.
	FrameNormalize bool
	// BinStandardize subtracts each frequency bin's temporal mean so the
	// correlation compares time-varying structure. The stationary
	// expected spectrum of a capture (the coupling curve shaping ambient
	// noise and amplifier noise) is identical on both devices and would
	// otherwise correlate even between two noise-only captures.
	BinStandardize bool
}

// DefaultConfig returns the paper's feature configuration.
func DefaultConfig() Config {
	return Config{FFTSize: 64, HopSize: 16, CropHz: 5, HighPassHz: 5, Normalize: true, FrameNormalize: false, BinStandardize: true}
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
	if cfg.FrameNormalize {
		for _, row := range spec.Power {
			total := 0.0
			for _, v := range row {
				total += v
			}
			if total > 0 {
				for i := range row {
					row[i] /= total
				}
			}
		}
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

// SensePair runs the sensing passes of two recordings, a and b, as one
// pair. Its features, its errors and (on success) the state it leaves rng
// in are bit-identical to SenseFeatures on a followed by SenseFeatures on
// b with the same rng. Only the accelerometer noise draws from rng, so
// the two deterministic drives (speaker replay and noise-free capture) run
// concurrently, b's on one forked goroutine; then a's noise is drawn, then
// b's. The replay stage is observed once, for the time the caller waits
// for both captures.
func SensePair(w *device.Wearable, a, b []float64, cfg Config, rng *rand.Rand) (featA, featB *dsp.Spectrogram, err error) {
	sp := stageReplay.Start()
	var driveB device.Drive
	var errB error
	done := make(chan struct{})
	go func() {
		defer close(done)
		driveB, errB = w.Drive(b)
	}()
	driveA, errA := w.Drive(a)
	<-done
	if errA != nil {
		sp.End()
		return nil, nil, fmt.Errorf("sensing: %w", errA)
	}
	vibA := w.Accel.AddNoise(driveA, rng)
	var vibB []float64
	if errB == nil {
		vibB = w.Accel.AddNoise(driveB, rng)
	}
	sp.End()
	// Errors are reported in the sequential order: a's capture, a's
	// features, b's capture, b's features.
	if featA, err = extract(vibA, cfg); err != nil {
		return nil, nil, err
	}
	if errB != nil {
		return nil, nil, fmt.Errorf("sensing: %w", errB)
	}
	if featB, err = extract(vibB, cfg); err != nil {
		return nil, nil, err
	}
	return featA, featB, nil
}

// extract is ExtractFeatures timed as the stft stage.
func extract(vib []float64, cfg Config) (*dsp.Spectrogram, error) {
	sp := stageSTFT.Start()
	feat, err := ExtractFeatures(vib, cfg)
	sp.End()
	return feat, err
}
