package device

import (
	"math"
	"math/rand"
	"testing"

	"vibguard/internal/dsp"
)

func TestAccelerometerValidate(t *testing.T) {
	a := NewAccelerometer()
	if err := a.Validate(); err != nil {
		t.Errorf("default accel invalid: %v", err)
	}
	bad := a
	bad.SampleRate = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero rate should error")
	}
	bad = a
	bad.ArtifactGain = 0.5
	if err := bad.Validate(); err == nil {
		t.Error("artifact gain < 1 should error")
	}
	bad = a
	bad.CouplingLow = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero coupling should error")
	}
	bad = a
	bad.NoiseFloor = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative noise should error")
	}
	// Every check is a comparison, which NaN passes, so non-finite values
	// need their own rejection in every field.
	fields := map[string]func(*Accelerometer) *float64{
		"SampleRate":            func(a *Accelerometer) *float64 { return &a.SampleRate },
		"ArtifactGain":          func(a *Accelerometer) *float64 { return &a.ArtifactGain },
		"ArtifactCutoffHz":      func(a *Accelerometer) *float64 { return &a.ArtifactCutoffHz },
		"CouplingLow":           func(a *Accelerometer) *float64 { return &a.CouplingLow },
		"CouplingHigh":          func(a *Accelerometer) *float64 { return &a.CouplingHigh },
		"NoiseFloor":            func(a *Accelerometer) *float64 { return &a.NoiseFloor },
		"LowFreqNoiseFactor":    func(a *Accelerometer) *float64 { return &a.LowFreqNoiseFactor },
		"BroadbandNoiseFactor":  func(a *Accelerometer) *float64 { return &a.BroadbandNoiseFactor },
		"NoiseCeiling":          func(a *Accelerometer) *float64 { return &a.NoiseCeiling },
		"LowFreqNoiseSharpness": func(a *Accelerometer) *float64 { return &a.LowFreqNoiseSharpness },
		"BodyMotionAmp":         func(a *Accelerometer) *float64 { return &a.BodyMotionAmp },
	}
	for name, field := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			bad = a
			*field(&bad) = v
			if err := bad.Validate(); err == nil {
				t.Errorf("%s = %v should error", name, v)
			}
		}
	}
	for _, name := range []string{"BroadbandNoiseFactor", "NoiseCeiling", "BodyMotionAmp"} {
		bad = a
		*fields[name](&bad) = -1e-9
		if err := bad.Validate(); err == nil {
			t.Errorf("negative %s should error", name)
		}
	}
	// LowFreqNoiseSharpness <= 0 means 1, so it stays valid.
	for _, sharp := range []float64{0, -2} {
		ok := a
		ok.LowFreqNoiseSharpness = sharp
		if err := ok.Validate(); err != nil {
			t.Errorf("sharpness %v: %v", sharp, err)
		}
	}
}

// TestLowFrequencyDominance checks the dominance a drive measures on its
// zero-padded spectrum: near 1 for a low tone, near 0 for a high one,
// about half for their balanced mix, and 0 for empty or silent audio.
func TestLowFrequencyDominance(t *testing.T) {
	const fs = 16000.0
	a := NewAccelerometer()
	low := dsp.Tone(200, 1, 0.5, fs)
	high := dsp.Tone(3000, 1, 0.5, fs)
	if rho := a.Dominance(low, fs); rho < 0.9 {
		t.Errorf("pure low tone dominance = %v, want > 0.9", rho)
	}
	if rho := a.Dominance(high, fs); rho > 0.1 {
		t.Errorf("pure high tone dominance = %v, want < 0.1", rho)
	}
	mixed := dsp.Mix(low, high)
	rho := a.Dominance(mixed, fs)
	if rho < 0.3 || rho > 0.7 {
		t.Errorf("balanced mix dominance = %v, want ~0.5", rho)
	}
	if a.Dominance(nil, fs) != 0 {
		t.Error("empty signal dominance should be 0")
	}
	if a.Dominance(make([]float64, 100), fs) != 0 {
		t.Error("silent signal dominance should be 0")
	}
}

func TestCaptureOutputRate(t *testing.T) {
	a := NewAccelerometer()
	rng := rand.New(rand.NewSource(1))
	audio := dsp.Tone(1000, 0.3, 1.0, 16000)
	vib, err := a.Capture(audio, 16000, rng)
	if err != nil {
		t.Fatal(err)
	}
	// 1 second of audio -> ~200 vibration samples.
	if math.Abs(float64(len(vib))-200) > 2 {
		t.Errorf("vibration samples = %d, want ~200", len(vib))
	}
}

func TestCaptureAliasing(t *testing.T) {
	a := NewAccelerometer()
	a.NoiseFloor = 0
	a.LowFreqNoiseFactor = 0
	rng := rand.New(rand.NewSource(2))
	// 1130 Hz audio samples at 200 Hz: alias = |1130 - 6*200| = 70 Hz.
	audio := dsp.Tone(1130, 0.3, 2.0, 16000)
	vib, err := a.Capture(audio, 16000, rng)
	if err != nil {
		t.Fatal(err)
	}
	spec := dsp.MagnitudeSpectrum(vib)
	best, bestV := 0, 0.0
	for k, v := range spec {
		if f := dsp.BinFrequency(k, len(vib), 200); f > 6 && v > bestV {
			best, bestV = k, v
		}
	}
	aliasFreq := dsp.BinFrequency(best, len(vib), 200)
	if math.Abs(aliasFreq-70) > 3 {
		t.Errorf("alias peak at %vHz, want 70Hz", aliasFreq)
	}
}

func TestCaptureLowFrequencyCouplingWeak(t *testing.T) {
	a := NewAccelerometer()
	a.NoiseFloor = 0
	a.LowFreqNoiseFactor = 0
	rng := rand.New(rand.NewSource(3))
	// A 70 Hz audio tone couples weakly; a 1670 Hz tone (alias 70 Hz after
	// folding: 1670-8*200=70) couples strongly. Same vibration-domain
	// frequency, very different coupling.
	lowAudio := dsp.Tone(70, 0.3, 2.0, 16000)
	highAudio := dsp.Tone(1670, 0.3, 2.0, 16000)
	vibLow, err := a.Capture(lowAudio, 16000, rng)
	if err != nil {
		t.Fatal(err)
	}
	vibHigh, err := a.Capture(highAudio, 16000, rng)
	if err != nil {
		t.Fatal(err)
	}
	if dsp.RMS(vibLow) > dsp.RMS(vibHigh)*0.3 {
		t.Errorf("low-frequency audio coupled too strongly: %v vs %v",
			dsp.RMS(vibLow), dsp.RMS(vibHigh))
	}
}

func TestCaptureNoiseGrowsWithLowFreqDominance(t *testing.T) {
	a := NewAccelerometer()
	// Measure injected noise via capture of two equal-RMS signals.
	lowDominated := dsp.Tone(300, 0.3, 2.0, 16000) // thru-barrier-like
	broadband := dsp.Mix(dsp.Tone(300, 0.15, 2.0, 16000), dsp.Tone(2500, 0.25, 2.0, 16000))
	// Capture each twice with different rngs; the *difference* between two
	// captures isolates the random noise component.
	noiseRMS := func(x []float64) float64 {
		v1, err := a.Capture(x, 16000, rand.New(rand.NewSource(10)))
		if err != nil {
			t.Fatal(err)
		}
		v2, err := a.Capture(x, 16000, rand.New(rand.NewSource(20)))
		if err != nil {
			t.Fatal(err)
		}
		diff := make([]float64, len(v1))
		for i := range v1 {
			diff[i] = v1[i] - v2[i]
		}
		return dsp.RMS(diff)
	}
	// Normalize by captured signal level to compare noise-to-signal.
	sigRMS := func(x []float64) float64 {
		clean := a
		clean.NoiseFloor = 0
		clean.LowFreqNoiseFactor = 0
		v, err := clean.Capture(x, 16000, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		return dsp.RMS(v)
	}
	nsLow := noiseRMS(lowDominated) / sigRMS(lowDominated)
	nsBroad := noiseRMS(broadband) / sigRMS(broadband)
	// The broadband conduction-noise floor applies to both, so the
	// low-frequency amplifier noise shows up as a ~1.5-2x relative excess.
	if nsLow < 1.5*nsBroad {
		t.Errorf("low-frequency-dominated sound should be noisier: %v vs %v", nsLow, nsBroad)
	}
}

func TestChirpResponseLowFrequencyArtifact(t *testing.T) {
	// Fig. 7: the accelerometer responds strongly below 5 Hz to a
	// 500-2500 Hz chirp.
	a := NewAccelerometer()
	a.NoiseFloor = 0
	a.LowFreqNoiseFactor = 0
	rng := rand.New(rand.NewSource(4))
	spec, err := a.ChirpResponse(500, 2500, 4.0, 16000, rng)
	if err != nil {
		t.Fatal(err)
	}
	n := (len(spec) - 1) * 2
	low, lowCount := 0.0, 0
	mid, midCount := 0.0, 0
	for k, v := range spec {
		f := dsp.BinFrequency(k, n, 200)
		switch {
		case f > 0.2 && f <= 5:
			low += v
			lowCount++
		case f >= 20 && f <= 80:
			mid += v
			midCount++
		}
	}
	if lowCount == 0 || midCount == 0 {
		t.Fatal("bad bin coverage")
	}
	if low/float64(lowCount) < 3*mid/float64(midCount) {
		t.Errorf("0-5Hz response %v not dominant over 20-80Hz %v",
			low/float64(lowCount), mid/float64(midCount))
	}
}

func TestCaptureBodyMotion(t *testing.T) {
	a := NewAccelerometer()
	a.BodyMotionAmp = 0.05
	a.NoiseFloor = 0
	a.LowFreqNoiseFactor = 0
	rng := rand.New(rand.NewSource(5))
	silent := make([]float64, 32000)
	vib, err := a.Capture(silent, 16000, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Motion should appear below 5 Hz (x8 artifact gain applies too).
	spec := dsp.PowerSpectrum(vib)
	n := len(vib)
	lowE, highE := 0.0, 0.0
	for k, v := range spec {
		f := dsp.BinFrequency(k, n, 200)
		if f > 0 && f < 5 {
			lowE += v
		} else if f > 10 {
			highE += v
		}
	}
	if lowE <= highE*10 {
		t.Errorf("body motion not concentrated below 5Hz: low %v, high %v", lowE, highE)
	}
}

func TestCaptureEmptyAndErrors(t *testing.T) {
	a := NewAccelerometer()
	rng := rand.New(rand.NewSource(1))
	out, err := a.Capture(nil, 16000, rng)
	if err != nil || out != nil {
		t.Errorf("empty capture: %v, %v", out, err)
	}
	if _, err := a.Capture([]float64{1}, 0, rng); err == nil {
		t.Error("zero audio rate should error")
	}
}
