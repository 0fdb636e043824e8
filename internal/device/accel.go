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

// Validate checks accelerometer parameters.
func (a *Accelerometer) Validate() error {
	if err := checkFinite("accel", "sample rate,artifact gain,artifact cutoff,low coupling,high coupling,noise floor,"+
		"low-frequency noise factor,broadband noise factor,noise ceiling,low-frequency noise sharpness,body motion amplitude",
		a.SampleRate, a.ArtifactGain, a.ArtifactCutoffHz, a.CouplingLow, a.CouplingHigh, a.NoiseFloor,
		a.LowFreqNoiseFactor, a.BroadbandNoiseFactor, a.NoiseCeiling, a.LowFreqNoiseSharpness, a.BodyMotionAmp); err != nil {
		return err
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
// level. Empty audio gives an empty Drive, which AddNoise turns into an
// empty capture without touching its rng.
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
	b := dsp.NewShapeBuffer(audio)
	defer b.Release()
	return a.drive(b, audioRate, func() []float64 { return audio }), nil
}

// drive is Drive on the audio b holds, whose buffer it uses up; audio
// gives that audio again (see conduct).
func (a *Accelerometer) drive(b dsp.ShapeBuffer, audioRate float64, audio func() []float64) Drive {
	vib, rho := a.conduct(b, audioRate, audio)

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
	// frequencies and saturates at the amplifier's noise ceiling. rho is
	// in [0, 1], so the gain is at least the broadband factor, and a
	// level the broadband term saturates is exactly the ceiling. A level
	// that is not finite (the vibration's energy overflowed, or past
	// max|x|·len(x) ≈ 1e308 the transform did and the vibration is NaN)
	// is past any ceiling; with no ceiling it is the largest finite one.
	sharp := a.LowFreqNoiseSharpness
	if sharp <= 0 {
		sharp = 1
	}
	gain := a.BroadbandNoiseFactor + a.LowFreqNoiseFactor*math.Pow(rho, sharp)
	sigma := gain * dsp.RMS(vib)
	if a.NoiseCeiling > 0 && !(sigma <= a.NoiseCeiling) {
		sigma = a.NoiseCeiling
	} else if !(sigma <= math.MaxFloat64) {
		sigma = math.MaxFloat64
	}
	sigma += a.NoiseFloor
	return Drive{vib: vib, sigma: sigma}
}

// conduct runs steps 1 and 2 of a drive on the audio in b and returns the
// vibration with its low-frequency dominance rho: the share of the energy
// of its spectrum zero-padded to NextPow2(len(audio)), the one the coupling
// is applied to, below the 500 Hz cutoff. Thru-barrier sound is dominated
// by low frequencies (rho near 1); direct speech keeps its high band.
func (a *Accelerometer) conduct(b dsp.ShapeBuffer, audioRate float64, audio func() []float64) (vib []float64, rho float64) {
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
	gains := gainTable([5]float64{1, a.CouplingLow, a.CouplingHigh, audioRate, float64(dsp.NextPow2(len(b.Samples())))}, coupling)
	vib, low, total := b.ShapeDecimate(audioRate, gains, factor, lowFreqCutoff)
	if math.IsInf(total, 1) {
		// |X[k]|² overflowed (max|x|·len(x) past about 1e154). The share
		// does not depend on scale, so take it from the audio at unit peak.
		// A NaN total means the transform itself overflowed; rho stays 0
		// and Drive saturates the level.
		x := audio()
		_, low, total = dsp.ShapeDecimateTable(dsp.Scale(x, 1/dsp.MaxAbs(x)), audioRate, gains, factor, lowFreqCutoff)
	}
	if total > 0 {
		rho = min(low/total, 1) // the two sums round apart
	}
	return vib, rho
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
