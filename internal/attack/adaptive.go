package attack

import (
	"fmt"
	"math"
	"math/rand"

	"vibguard/internal/dsp"
)

// The Adaptive attack models the strongest adversary in the extended
// threat model: one who has the defense itself (or a faithful replica) and
// tunes their playback chain against it, in the style of VRifle's
// IR-robust training loop. The adversary holds an estimated barrier
// response, simulates the victim-side capture by convolving candidate
// commands with it, and hill-climbs per-band loudspeaker EQ gains to
// maximize the defense's own correlation score. The loop is deterministic
// per seed and bounded in iterations — the budget a real adversary pays in
// trial playbacks.

// Oracle scores a (VA recording, wearable recording) pair exactly as the
// defense does; core.Defense satisfies it.
type Oracle interface {
	Score(vaRec, wearRec []float64, rng *rand.Rand) (float64, error)
}

// adaptiveStepDB is the hill-climbing step size per move.
const adaptiveStepDB = 4.0

// AdaptiveConfig bounds and seeds the optimization loop.
type AdaptiveConfig struct {
	// Iterations is the optimization budget: each iteration is one
	// simulated trial playback against the oracle.
	Iterations int
	// Bands is the number of EQ bands the adversary tunes.
	Bands int
	// MaxBoostDB caps each band's gain: the loudspeaker amplitude budget
	// shared with the bypass attack.
	MaxBoostDB float64
	// CeilingPeak is the playback ceiling on the final waveform.
	CeilingPeak float64
	// Seed drives every random choice in the loop. The same seed yields a
	// bit-identical waveform and trajectory.
	Seed int64
	// VADistanceM and WearDistanceM are the adversary's guesses of the
	// receiver distances used in the simulated capture.
	VADistanceM, WearDistanceM float64
	// SampleRate of the command audio.
	SampleRate float64
}

// DefaultAdaptiveConfig returns the standard adversary budget: 28 trial
// playbacks over a 10-band equalizer.
func DefaultAdaptiveConfig(seed int64) AdaptiveConfig {
	return AdaptiveConfig{
		Iterations:    28,
		Bands:         10,
		MaxBoostDB:    40,
		CeilingPeak:   0.999,
		Seed:          seed,
		VADistanceM:   2.0,
		WearDistanceM: 2.2,
		SampleRate:    16000,
	}
}

// Validate checks the adaptive configuration.
func (c *AdaptiveConfig) Validate() error {
	if c.Iterations < 0 || c.Iterations > 10000 {
		return fmt.Errorf("attack: iteration budget %d outside [0, 10000]", c.Iterations)
	}
	if c.Bands < 2 {
		return fmt.Errorf("attack: need at least 2 EQ bands, got %d", c.Bands)
	}
	if c.MaxBoostDB < 0 {
		return fmt.Errorf("attack: max boost %v dB must be non-negative", c.MaxBoostDB)
	}
	if c.CeilingPeak <= 0 {
		return fmt.Errorf("attack: ceiling %v must be positive", c.CeilingPeak)
	}
	if c.VADistanceM <= 0 || c.WearDistanceM <= 0 {
		return fmt.Errorf("attack: distances (%v, %v) must be positive", c.VADistanceM, c.WearDistanceM)
	}
	if c.SampleRate <= 0 {
		return fmt.Errorf("attack: sample rate %v must be positive", c.SampleRate)
	}
	return nil
}

// AdaptiveResult is the outcome of one adaptive optimization run.
type AdaptiveResult struct {
	// Audio is the optimized loudspeaker waveform.
	Audio []float64
	// GainsDB are the optimized per-band EQ gains.
	GainsDB []float64
	// Trajectory is the best oracle score after each iteration
	// (Trajectory[0] is the score of the initial candidate).
	Trajectory []float64
	// InitialScore and BestScore bracket the optimization.
	InitialScore, BestScore float64
}

// adaptiveMix is SplitMix64: it derives one independent sub-seed per
// iteration so the oracle's noise stream cannot depend on the acceptance
// path taken to reach that iteration.
func adaptiveMix(seed, i uint64) uint64 {
	z := seed + (i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// eqBandCenters returns geometrically spaced EQ band centers across the
// loudspeaker's usable band.
func eqBandCenters(bands int) []float64 {
	const lo, hi = 150.0, 6500.0
	ratio := math.Pow(hi/lo, 1/float64(bands-1))
	centers := make([]float64, bands)
	f := lo
	for i := range centers {
		centers[i] = f
		f *= ratio
	}
	return centers
}

// eqGain interpolates per-band dB gains to a continuous amplitude gain
// (linear in dB against log-frequency, clamped at the band edges).
func eqGain(centers, gainsDB []float64, f float64) float64 {
	if math.IsNaN(f) || f <= centers[0] {
		return dsp.DBToAmplitude(gainsDB[0])
	}
	last := len(centers) - 1
	if f >= centers[last] {
		return dsp.DBToAmplitude(gainsDB[last])
	}
	for i := 1; i <= last; i++ {
		if f <= centers[i] {
			frac := math.Log(f/centers[i-1]) / math.Log(centers[i]/centers[i-1])
			return dsp.DBToAmplitude(gainsDB[i-1] + (gainsDB[i]-gainsDB[i-1])*frac)
		}
	}
	return dsp.DBToAmplitude(gainsDB[last])
}

// AdaptiveAttack hill-climbs per-band EQ gains against the oracle. The
// gains start at the budget-capped inverse of the estimated barrier curve
// (the bypass attack's solution) and each iteration perturbs one random
// band by ±4 dB (adaptiveStepDB), keeping the change when the simulated
// defense score improves. All randomness derives from cfg.Seed, never from
// the Attacker's own stream, so the run is reproducible independent of
// what the attacker generated before.
func (a *Attacker) AdaptiveAttack(commandAudio []float64, est *GainEstimate, oracle Oracle, cfg AdaptiveConfig) (*AdaptiveResult, error) {
	if len(commandAudio) == 0 {
		return nil, fmt.Errorf("attack: empty command audio")
	}
	if est == nil || len(est.Gains) == 0 {
		return nil, fmt.Errorf("attack: nil barrier estimate")
	}
	if oracle == nil {
		return nil, fmt.Errorf("attack: nil oracle")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	centers := eqBandCenters(cfg.Bands)

	// Seed the climb with the bypass solution: the budget-capped inverse
	// of the estimated barrier curve in dB.
	gains := make([]float64, cfg.Bands)
	for i, f := range centers {
		boost := -dsp.AmplitudeToDB(est.Gain(f))
		if boost < 0 {
			boost = 0
		}
		if boost > cfg.MaxBoostDB {
			boost = cfg.MaxBoostDB
		}
		gains[i] = boost
	}

	// render produces the loudspeaker output for a candidate gain vector.
	render := func(g []float64) ([]float64, error) {
		eq := dsp.FrequencyShape(commandAudio, cfg.SampleRate, func(f float64) float64 {
			return eqGain(centers, g, f)
		})
		if peak := dsp.MaxAbs(eq); peak > cfg.CeilingPeak {
			eq = dsp.Scale(eq, cfg.CeilingPeak/peak)
		}
		return a.Loudspeaker.Render(eq)
	}
	// evaluate simulates the victim-side capture — emitted sound through
	// the estimated barrier, 1/d spreading to each receiver — and asks the
	// oracle for the defense's score. The rng is derived per iteration so
	// the oracle's noise stream is independent of the acceptance path.
	spread := func(d float64) float64 {
		if d < 1 {
			return 1
		}
		return 1 / d
	}
	evaluate := func(g []float64, iter int) (float64, error) {
		emitted, err := render(g)
		if err != nil {
			return 0, err
		}
		behind := dsp.FrequencyShape(emitted, cfg.SampleRate, est.Gain)
		va := dsp.Scale(behind, spread(cfg.VADistanceM))
		wear := dsp.Scale(behind, spread(cfg.WearDistanceM))
		rng := rand.New(rand.NewSource(int64(adaptiveMix(uint64(cfg.Seed), uint64(iter)))))
		return oracle.Score(va, wear, rng)
	}

	best, err := evaluate(gains, 0)
	if err != nil {
		return nil, fmt.Errorf("attack: adaptive oracle: %w", err)
	}
	result := &AdaptiveResult{
		GainsDB:      gains,
		Trajectory:   make([]float64, 0, cfg.Iterations+1),
		InitialScore: best,
	}
	result.Trajectory = append(result.Trajectory, best)

	rng := rand.New(rand.NewSource(cfg.Seed))
	for iter := 1; iter <= cfg.Iterations; iter++ {
		band := rng.Intn(cfg.Bands)
		step := adaptiveStepDB
		if rng.Intn(2) == 0 {
			step = -step
		}
		candidate := make([]float64, cfg.Bands)
		copy(candidate, gains)
		candidate[band] += step
		if candidate[band] < 0 {
			candidate[band] = 0
		}
		if candidate[band] > cfg.MaxBoostDB {
			candidate[band] = cfg.MaxBoostDB
		}
		score, err := evaluate(candidate, iter)
		if err != nil {
			return nil, fmt.Errorf("attack: adaptive oracle: %w", err)
		}
		if score > best {
			best = score
			copy(gains, candidate)
		}
		result.Trajectory = append(result.Trajectory, best)
	}
	result.BestScore = best
	result.Audio, err = render(gains)
	if err != nil {
		return nil, fmt.Errorf("attack: %w", err)
	}
	return result, nil
}
