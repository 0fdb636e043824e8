package device

import (
	"fmt"
	"math"
	"math/rand"

	"vibguard/internal/dsp"
)

// AccelSampleRate is the accelerometer sampling rate of commercial
// smartwatches (200 Hz in the paper's Fossil Gen 5 and Moto 360 2020).
const AccelSampleRate = 200.0

// lowFreqCutoff is the boundary below which audio couples weakly into the
// accelerometer and above which the paper's cross-domain sensing argument
// applies (Section IV-A: the accelerometer attenuates audio below ~500 Hz
// and captures components above ~1000 Hz via conduction and aliasing).
const lowFreqCutoff = 500.0

// Accelerometer models the wearable's accelerometer and the three measured
// behaviours the defense exploits:
//
//  1. Sampling at 200 Hz with no anti-alias filter, so high-frequency
//     audio-induced vibration folds into the 0-100 Hz band (aliasing,
//     Section IV-B).
//  2. A high-sensitivity artifact below 5 Hz (Fig. 7), plus body-motion
//     interference at 0.3-3.5 Hz.
//  3. Amplifier noise injection that grows with the low-frequency
//     dominance of the driving sound ([9], Section IV-A) — the property
//     that makes thru-barrier sound *noisy* in the vibration domain.
type Accelerometer struct {
	// SampleRate in Hz.
	SampleRate float64
	// ArtifactGain is the extra gain applied below ArtifactCutoffHz,
	// reproducing the strong 0-5 Hz response of Fig. 7.
	ArtifactGain     float64
	ArtifactCutoffHz float64
	// CouplingLow is the relative conduction gain for audio below 500 Hz
	// (weak); CouplingHigh for audio above 1000 Hz (strong).
	CouplingLow, CouplingHigh float64
	// NoiseFloor is the baseline sensor noise standard deviation.
	NoiseFloor float64
	// LowFreqNoiseFactor scales the extra amplifier noise injected in
	// proportion to the input's low-frequency energy dominance.
	LowFreqNoiseFactor float64
	// BroadbandNoiseFactor scales conduction noise proportional to the
	// captured vibration level regardless of spectral shape.
	BroadbandNoiseFactor float64
	// NoiseCeiling caps the level-proportional noise terms: the amplifier
	// noise saturates, so strong drives are captured at high SNR while
	// weak thru-barrier residues drown (0 disables the cap).
	NoiseCeiling float64
	// LowFreqNoiseSharpness is the exponent applied to the low-frequency
	// dominance before it scales amplifier noise. The amplifier's noise
	// injection is a threshold-like effect that only engages when the
	// drive is dominated by low frequencies ([9]): direct speech
	// (dominance ~0.8) stays nearly clean while thru-barrier sound
	// (dominance ~1.0) is heavily degraded.
	LowFreqNoiseSharpness float64
	// BodyMotionAmp is the amplitude of wearer body-motion interference
	// (0 when the arm is still).
	BodyMotionAmp float64
}

// NewAccelerometer returns the accelerometer profile of a commercial
// smartwatch (calibrated against the behaviours reported for the Fossil
// Gen 5).
func NewAccelerometer() Accelerometer {
	return Accelerometer{
		SampleRate:            AccelSampleRate,
		ArtifactGain:          8.0,
		ArtifactCutoffHz:      5.0,
		CouplingLow:           0.05,
		CouplingHigh:          1.0,
		NoiseFloor:            1e-4,
		LowFreqNoiseFactor:    0.7,
		BroadbandNoiseFactor:  0.08,
		NoiseCeiling:          0.002,
		LowFreqNoiseSharpness: 12,
		BodyMotionAmp:         0,
	}
}

// Validate checks accelerometer parameters. Every field must be finite:
// each check below is a comparison, which NaN passes.
func (a *Accelerometer) Validate() error {
	fields := [...]struct {
		name string
		v    float64
	}{
		{"sample rate", a.SampleRate},
		{"artifact gain", a.ArtifactGain},
		{"artifact cutoff", a.ArtifactCutoffHz},
		{"low coupling", a.CouplingLow},
		{"high coupling", a.CouplingHigh},
		{"noise floor", a.NoiseFloor},
		{"low-frequency noise factor", a.LowFreqNoiseFactor},
		{"broadband noise factor", a.BroadbandNoiseFactor},
		{"noise ceiling", a.NoiseCeiling},
		{"low-frequency noise sharpness", a.LowFreqNoiseSharpness},
		{"body motion amplitude", a.BodyMotionAmp},
	}
	for _, f := range fields {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("device: accel %s %v must be finite", f.name, f.v)
		}
	}
	if a.SampleRate <= 0 {
		return fmt.Errorf("device: accel sample rate %v must be positive", a.SampleRate)
	}
	if a.ArtifactGain < 1 {
		return fmt.Errorf("device: artifact gain %v must be >= 1", a.ArtifactGain)
	}
	if a.CouplingLow <= 0 || a.CouplingHigh <= 0 {
		return fmt.Errorf("device: coupling gains (%v, %v) must be positive", a.CouplingLow, a.CouplingHigh)
	}
	if a.NoiseFloor < 0 || a.LowFreqNoiseFactor < 0 || a.BroadbandNoiseFactor < 0 || a.NoiseCeiling < 0 {
		return fmt.Errorf("device: noise parameters (%v, %v, %v, %v) must be non-negative",
			a.NoiseFloor, a.LowFreqNoiseFactor, a.BroadbandNoiseFactor, a.NoiseCeiling)
	}
	if a.BodyMotionAmp < 0 {
		return fmt.Errorf("device: body motion amplitude %v must be non-negative", a.BodyMotionAmp)
	}
	return nil
}

// LowFrequencyDominance returns the fraction of the signal's spectral
// energy below the 500 Hz coupling cutoff (dsp.LowBandPower; its Parseval
// total can round below the low-band sum, hence the clamp). Thru-barrier
// attack sounds are dominated by low frequencies (ratio near 1); a user's
// direct speech has a substantially lower ratio because its
// high-frequency content survives.
func LowFrequencyDominance(audio []float64, sampleRate float64) float64 {
	low, total := dsp.LowBandPower(audio, dsp.FrequencyBin(lowFreqCutoff, len(audio), sampleRate))
	if total <= 0 {
		return 0
	}
	return min(low/total, 1)
}

// Capture converts an audio waveform (the sound driving the wearable's
// chassis during cross-domain replay) into the accelerometer's vibration
// recording at 200 Hz. It is Drive followed by AddNoise.
func (a *Accelerometer) Capture(audio []float64, audioRate float64, rng *rand.Rand) ([]float64, error) {
	d, err := a.Drive(audio, audioRate)
	if err != nil {
		return nil, err
	}
	return a.AddNoise(d, rng), nil
}

// Drive is the deterministic part of one capture: the vibration a sound
// induces before any noise is added, and the amplifier noise level the
// capture will draw. It depends on no rng, so the drives of several
// captures may be computed concurrently and their noise drawn afterwards
// in a fixed order.
type Drive struct {
	vib   []float64
	sigma float64
}

// Copy returns a drive that owns its vibration, so that AddNoise on the
// copy leaves d untouched: several captures of one sound share one drive.
func (d Drive) Copy() Drive {
	return Drive{vib: append([]float64(nil), d.vib...), sigma: d.sigma}
}

// Drive computes the noise-free steps of Capture: conduction coupling,
// decimation without anti-aliasing, the sub-5 Hz artifact, and the noise
// level. The low-frequency dominance, an exact-length spectrum of the
// audio, is computed only when the level is not already saturated at the
// noise ceiling (see saturates). Empty audio gives an empty Drive, which
// AddNoise turns into an empty capture without touching its rng.
func (a *Accelerometer) Drive(audio []float64, audioRate float64) (Drive, error) {
	if err := a.Validate(); err != nil {
		return Drive{}, err
	}
	if audioRate <= 0 {
		return Drive{}, fmt.Errorf("device: audio rate %v must be positive", audioRate)
	}
	if len(audio) == 0 {
		return Drive{}, nil
	}
	// 1. Frequency-dependent conduction coupling at the audio rate: audio
	// below ~800 Hz drives the chassis very weakly (falling off
	// quadratically toward DC), with full coupling only above ~1.6 kHz
	// (Section IV-A: the accelerometer attenuates low-frequency audio and
	// captures components above 1 kHz).
	const couplingKnee = 800.0
	coupling := func(f float64) float64 {
		switch {
		case f < couplingKnee:
			r := f / couplingKnee
			return a.CouplingLow * r * r
		case f < 2*couplingKnee:
			frac := (f - couplingKnee) / couplingKnee
			return a.CouplingLow + (a.CouplingHigh-a.CouplingLow)*frac
		default:
			return a.CouplingHigh
		}
	}

	// 2. Point-sample at the accelerometer rate with no anti-alias filter:
	// content above 100 Hz folds into the vibration band.
	factor := max(int(audioRate/a.SampleRate), 1)
	vib := dsp.ShapeDecimate(audio, audioRate, coupling, factor)

	// 3. The 0-5 Hz hypersensitivity artifact of Fig. 7.
	vib = dsp.FrequencyShape(vib, a.SampleRate, func(f float64) float64 {
		if f <= a.ArtifactCutoffHz {
			return a.ArtifactGain
		}
		return 1
	})

	// The level of step 4's amplifier noise: a fixed floor, broadband
	// conduction noise, and the low-frequency-driven amplifier noise of
	// [9], which engages sharply as the drive becomes dominated by low
	// frequencies and saturates at the amplifier's noise ceiling.
	sharp := a.LowFreqNoiseSharpness
	if sharp <= 0 {
		sharp = 1
	}
	rms := dsp.RMS(vib)
	var rho float64
	if !saturates(a.BroadbandNoiseFactor, rms, a.NoiseCeiling, audio) {
		rho = LowFrequencyDominance(audio, audioRate)
	}
	gain := a.BroadbandNoiseFactor + a.LowFreqNoiseFactor*math.Pow(rho, sharp)
	sigma := gain * rms
	if a.NoiseCeiling > 0 && sigma > a.NoiseCeiling {
		sigma = a.NoiseCeiling
	}
	sigma += a.NoiseFloor
	return Drive{vib: vib, sigma: sigma}, nil
}

// dominanceOverflowBound bounds max|x|·len(x) for the audio whose
// dominance saturates may skip. Below it the dominance's sums are finite:
// each bin's |X(k)|² and the Parseval total's n·sum x² are at most
// (max|x|·len(x))² < 1e300, so the clamped ratio is a number in [0, 1].
const dominanceOverflowBound = 1e150

// saturates reports whether the broadband term alone already lifts the
// noise level above the ceiling, so that the low-frequency dominance
// cannot change it. The gain is broadband + lf·rho^sharp with lf >= 0
// (Validate) and rho^sharp in [0, 1], so it is at least broadband, and
// float addition and multiplication round monotonically: when
// broadband·rms > ceiling > 0, gain·rms > ceiling too, and the level is
// exactly the ceiling for every rho. The proof needs rho to be a number,
// not NaN, which the finite rms (NaN audio spreads NaN through the whole
// coupled drive) and the overflow bound guarantee.
func saturates(broadband, rms, ceiling float64, audio []float64) bool {
	return ceiling > 0 && broadband*rms > ceiling &&
		!math.IsInf(rms, 0) && !math.IsNaN(rms) &&
		dsp.MaxAbs(audio)*float64(len(audio)) < dominanceOverflowBound
}

// AddNoise completes a capture: it adds the amplifier noise and any
// body-motion interference to the drive's vibration, in place, and returns
// it. These are the only steps of a capture that draw from rng.
func (a *Accelerometer) AddNoise(d Drive, rng *rand.Rand) []float64 {
	vib := d.vib
	if len(vib) == 0 {
		return nil
	}
	// 4. Amplifier noise at the drive's level. The stationary noise is
	// drawn once per capture: two captures of the same sound get
	// independent noise, which is why noisy (thru-barrier) captures
	// decorrelate.
	for i := range vib {
		vib[i] += d.sigma * rng.NormFloat64()
	}

	// 5. Body-motion interference at 0.3-3.5 Hz, if the wearer moves.
	if a.BodyMotionAmp > 0 {
		motionFreq := 0.3 + rng.Float64()*3.2
		phase := rng.Float64() * 2 * math.Pi
		for i := range vib {
			t := float64(i) / a.SampleRate
			vib[i] += a.BodyMotionAmp * math.Sin(2*math.Pi*motionFreq*t+phase)
		}
	}
	return vib
}

// ChirpResponse measures the accelerometer's output power per vibration-
// domain frequency bin in response to an audio chirp, reproducing the
// Fig. 7 experiment. It returns the average power spectrum of the captured
// vibration at the accelerometer rate.
func (a *Accelerometer) ChirpResponse(f0, f1, duration float64, audioRate float64, rng *rand.Rand) ([]float64, error) {
	chirp := dsp.Chirp(f0, f1, 0.3, duration, audioRate)
	vib, err := a.Capture(chirp, audioRate, rng)
	if err != nil {
		return nil, err
	}
	return dsp.PowerSpectrum(vib), nil
}
