// Package selection implements the offline barrier-effect-sensitive
// phoneme selection of Section V-A. For every common phoneme it measures
// third-quartile FFT magnitudes of the wearable's vibration signals with
// and without the barrier, then applies the two criteria of Eqs. (2)-(3):
//
//	Criterion I:  max_f Q3_adv(p, f)  < α  — the phoneme cannot trigger
//	              the accelerometer after passing a barrier.
//	Criterion II: min_f Q3_user(p, f) > α  — the phoneme does trigger the
//	              accelerometer when not passing a barrier.
//
// The barrier-effect-sensitive set is the intersection of both criteria.
package selection

import (
	"fmt"
	"math"
	"math/rand"

	"vibguard/internal/acoustics"
	"vibguard/internal/device"
	"vibguard/internal/dsp"
	"vibguard/internal/phoneme"
)

// DefaultAlpha is the FFT-magnitude threshold α of Eqs. (2)-(3),
// empirically set from the noise-magnitude floor of the simulated
// accelerometer, following the paper's procedure (the paper's own value,
// 0.015, is tied to the absolute scale of its hardware's FFT magnitudes;
// our simulated sensor has a different absolute scale).
const DefaultAlpha = 0.0062

// CanonicalSelected returns the 31 barrier-effect-sensitive phonemes that
// the offline study (Run with DefaultConfig) identifies, cached here so
// downstream components do not need to re-run the study. The excluded six
// are the weak fricatives /s/, /z/, /th/, /sh/ (Criterion II) and the loud
// open vowels /aa/, /ao/ (Criterion I), matching Section V-A's rationale.
func CanonicalSelected() map[string]bool {
	excluded := map[string]bool{"s": true, "z": true, "th": true, "sh": true, "aa": true, "ao": true}
	out := make(map[string]bool, phoneme.Count()-len(excluded))
	for _, sym := range phoneme.Symbols() {
		if !excluded[sym] {
			out[sym] = true
		}
	}
	return out
}

// Config parameterizes the offline selection study.
type Config struct {
	// Barrier is the typical barrier used for Criterion I (glass window
	// or wooden door).
	Barrier acoustics.Barrier
	// Wearable provides the speaker + accelerometer for cross-domain
	// sensing.
	Wearable *device.Wearable
	// SPLs are the playback sound pressure levels (75 and 85 dB in the
	// paper).
	SPLs []float64
	// SpeakerCount is the number of voices used (10 in the paper: five
	// male, five female).
	SpeakerCount int
	// SegmentsPerSpeaker is the number of segments per speaker and SPL.
	SegmentsPerSpeaker int
	// DistanceM is the playback-to-receiver distance.
	DistanceM float64
	// Alpha is the threshold of Eqs. (2)-(3).
	Alpha float64
	// Seed drives all randomness.
	Seed int64
}

// DefaultConfig mirrors the paper's setup with a Fossil Gen 5 and a glass
// window, at a size that keeps the offline study fast.
func DefaultConfig() Config {
	return Config{
		Barrier:            acoustics.GlassWindow,
		Wearable:           device.NewFossilGen5(),
		SPLs:               []float64{75, 85},
		SpeakerCount:       10,
		SegmentsPerSpeaker: 5,
		DistanceM:          2,
		Alpha:              DefaultAlpha,
		Seed:               1,
	}
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if err := c.Barrier.Validate(); err != nil {
		return fmt.Errorf("selection: %w", err)
	}
	if c.Wearable == nil {
		return fmt.Errorf("selection: wearable is nil")
	}
	if len(c.SPLs) == 0 {
		return fmt.Errorf("selection: no SPLs")
	}
	if c.SpeakerCount <= 0 || c.SegmentsPerSpeaker <= 0 {
		return fmt.Errorf("selection: speakers %d and segments %d must be positive", c.SpeakerCount, c.SegmentsPerSpeaker)
	}
	if c.DistanceM <= 0 {
		return fmt.Errorf("selection: distance %v must be positive", c.DistanceM)
	}
	if c.Alpha <= 0 {
		return fmt.Errorf("selection: alpha %v must be positive", c.Alpha)
	}
	return nil
}

// PhonemeStats records the measured quartile statistics for one phoneme.
type PhonemeStats struct {
	// Symbol is the phoneme.
	Symbol string
	// QAdvMax is max_f Q3_adv(p, f): the peak third-quartile vibration
	// magnitude after the barrier.
	QAdvMax float64
	// QUserMin is min_f Q3_user(p, f): the weakest third-quartile
	// vibration magnitude without the barrier.
	QUserMin float64
	// PassI and PassII report the two criteria.
	PassI, PassII bool
	// QAdv and QUser are the full third-quartile spectra (per vibration-
	// domain FFT bin), used to reproduce Fig. 6.
	QAdv, QUser []float64
}

// Sensitive reports whether the phoneme is barrier-effect sensitive (both
// criteria hold).
func (s *PhonemeStats) Sensitive() bool { return s.PassI && s.PassII }

// Result is the outcome of the offline selection study.
type Result struct {
	// Stats maps each phoneme symbol to its measurements.
	Stats map[string]*PhonemeStats
	// Selected lists the barrier-effect-sensitive phonemes in Table II
	// order.
	Selected []string
	// Alpha echoes the threshold used.
	Alpha float64
}

// vibrationSpectrum measures the mean FFT magnitude spectrum (64-point
// frames) of one cross-domain sensing pass.
func vibrationSpectrum(w *device.Wearable, audio []float64, rng *rand.Rand) ([]float64, error) {
	vib, err := w.SenseVibration(audio, rng)
	if err != nil {
		return nil, err
	}
	spec, err := dsp.STFT(vib, dsp.STFTConfig{FFTSize: 64, HopSize: 32, SampleRate: device.AccelSampleRate})
	if err != nil {
		return nil, err
	}
	if spec.NumFrames() == 0 {
		return make([]float64, 33), nil
	}
	out := make([]float64, spec.NumBins())
	for _, row := range spec.Power {
		for k, v := range row {
			out[k] += v
		}
	}
	// Mean magnitude per bin: sqrt of mean power keeps the statistic on
	// the same scale as an FFT magnitude.
	for k := range out {
		out[k] = sqrtSafe(out[k] / float64(spec.NumFrames()))
	}
	return out, nil
}

func sqrtSafe(v float64) float64 {
	if v <= 0 {
		return 0
	}
	return math.Sqrt(v)
}

// Run executes the offline phoneme selection study.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	voices := phoneme.NewStudioVoicePool(cfg.SpeakerCount, cfg.Seed+100)
	res := &Result{Stats: make(map[string]*PhonemeStats, phoneme.Count()), Alpha: cfg.Alpha}

	for _, spec := range phoneme.All() {
		var advSpectra, userSpectra [][]float64
		for _, voice := range voices {
			synth, err := phoneme.NewSynthesizer(voice)
			if err != nil {
				return nil, fmt.Errorf("selection: %w", err)
			}
			for seg := 0; seg < cfg.SegmentsPerSpeaker; seg++ {
				raw, err := synth.Phoneme(spec.Symbol)
				if err != nil {
					return nil, fmt.Errorf("selection: %w", err)
				}
				for _, spl := range cfg.SPLs {
					// Scale the phoneme to the playback SPL, preserving
					// its relative intensity within the utterance.
					gain := dsp.SPLToAmplitude(spl) / 0.1 // refRMS of a unit vowel
					calibrated := dsp.Scale(raw, gain)

					// Criterion I path: through the barrier, then to the
					// receiver.
					adv := cfg.Barrier.Apply(calibrated, phoneme.SampleRate)
					adv = acoustics.Propagate(adv, cfg.DistanceM)
					advSpec, err := vibrationSpectrum(cfg.Wearable, adv, rng)
					if err != nil {
						return nil, fmt.Errorf("selection: %w", err)
					}
					advSpectra = append(advSpectra, advSpec)

					// Criterion II path: same setup without the barrier.
					user := acoustics.Propagate(calibrated, cfg.DistanceM)
					userSpec, err := vibrationSpectrum(cfg.Wearable, user, rng)
					if err != nil {
						return nil, fmt.Errorf("selection: %w", err)
					}
					userSpectra = append(userSpectra, userSpec)
				}
			}
		}
		stats := &PhonemeStats{Symbol: spec.Symbol}
		stats.QAdv = quartilePerBin(advSpectra)
		stats.QUser = quartilePerBin(userSpectra)
		// Bins at or below 5 Hz carry the accelerometer's hypersensitivity
		// artifact (Fig. 7) and are cropped by the detector (Section VI-B),
		// so they are excluded from both criteria.
		skip := artifactBins(64, device.AccelSampleRate, 5)
		stats.QAdvMax = maxOf(stats.QAdv[skip:])
		stats.QUserMin = minOf(stats.QUser[skip:])
		stats.PassI = stats.QAdvMax < cfg.Alpha
		stats.PassII = stats.QUserMin > cfg.Alpha
		res.Stats[spec.Symbol] = stats
	}
	// Selected keeps Table II order because Symbols() is already sorted.
	for _, sym := range phoneme.Symbols() {
		if res.Stats[sym].Sensitive() {
			res.Selected = append(res.Selected, sym)
		}
	}
	return res, nil
}

// quartilePerBin computes the third quartile across samples for every
// frequency bin.
func quartilePerBin(spectra [][]float64) []float64 {
	if len(spectra) == 0 {
		return nil
	}
	bins := len(spectra[0])
	out := make([]float64, bins)
	col := make([]float64, len(spectra))
	for k := 0; k < bins; k++ {
		for i, s := range spectra {
			col[i] = s[k]
		}
		out[k] = dsp.Quartile3(col)
	}
	return out
}

func maxOf(x []float64) float64 {
	m := 0.0
	for _, v := range x {
		if v > m {
			m = v
		}
	}
	return m
}

func minOf(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	m := x[0]
	for _, v := range x[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// artifactBins returns the number of leading FFT bins whose center
// frequency is at or below cutoff Hz for the given FFT size and rate.
func artifactBins(fftSize int, sampleRate, cutoff float64) int {
	n := 0
	for n <= fftSize/2 && dsp.BinFrequency(n, fftSize, sampleRate) <= cutoff {
		n++
	}
	return n
}
