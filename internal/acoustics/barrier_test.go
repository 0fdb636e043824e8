package acoustics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"vibguard/internal/dsp"
)

func TestMaterialString(t *testing.T) {
	if Glass.String() != "glass" || Wood.String() != "wood" || Brick.String() != "brick" {
		t.Error("material names wrong")
	}
	if Material(0).String() != "unknown" {
		t.Error("zero material should be unknown")
	}
}

func TestAlphaShapeForGlassAndWood(t *testing.T) {
	// The attenuation coefficient follows the standard panel
	// transmission-loss shape: monotone mass-law rise up to ~1.8 kHz, a
	// coincidence dip near 2.5 kHz, then damping-controlled rise again.
	for _, m := range []Material{Glass, Wood} {
		prev := -1.0
		for f := 50.0; f <= 1800; f += 50 {
			a := m.Alpha(f)
			if a < prev {
				t.Fatalf("%v: alpha not monotonic at %vHz", m, f)
			}
			prev = a
		}
		// Coincidence dip: 2.5 kHz must attenuate less than 1.8 kHz.
		if m.Alpha(2550) >= m.Alpha(1800) {
			t.Errorf("%v: no coincidence dip: alpha(2550)=%v >= alpha(1800)=%v",
				m, m.Alpha(2550), m.Alpha(1800))
		}
		// Above the dip the loss recovers.
		if m.Alpha(5000) <= m.Alpha(2550) {
			t.Errorf("%v: no recovery above the dip", m)
		}
		// High-frequency alpha must be much larger than low-frequency.
		if m.Alpha(3000) < 3*m.Alpha(100) {
			t.Errorf("%v: alpha(3k)=%v not >> alpha(100)=%v", m, m.Alpha(3000), m.Alpha(100))
		}
	}
}

// lossDB is the barrier's insertion loss at f in dB.
func lossDB(b Barrier, f float64) float64 { return -dsp.AmplitudeToDB(b.Gain(f)) }

func TestBrickAttenuatesBroadband(t *testing.T) {
	// Brick absorbs heavily at ALL frequencies: even the low band must be
	// hard to get through a 20 cm wall.
	if loss := lossDB(BrickWall, 100); loss < 30 {
		t.Errorf("brick wall low-frequency loss %v dB, want >= 30", loss)
	}
	if loss := lossDB(BrickWall, 3000); loss < 40 {
		t.Errorf("brick wall high-frequency loss %v dB, want >= 40", loss)
	}
}

func TestBarrierEffectFrequencySelectivity(t *testing.T) {
	// The barrier effect (Section III-B): glass window and wooden door pass
	// low frequencies with only a few dB of loss but attenuate >500 Hz
	// heavily.
	for _, b := range []Barrier{GlassWindow, WoodenDoor} {
		lowLoss := lossDB(b, 150)
		highLoss := lossDB(b, 3000)
		if lowLoss > 8 {
			t.Errorf("%s: low-frequency loss %v dB, want <= 8", b.Name, lowLoss)
		}
		if highLoss < 20 {
			t.Errorf("%s: high-frequency loss %v dB, want >= 20", b.Name, highLoss)
		}
		if highLoss < lowLoss+12 {
			t.Errorf("%s: selectivity %v dB, want >= 12", b.Name, highLoss-lowLoss)
		}
	}
}

func TestBarrierGainBounds(t *testing.T) {
	f := func(freq float64) bool {
		freq = math.Abs(math.Mod(freq, 8000))
		for _, b := range []Barrier{GlassWindow, WoodenDoor, GlassWall, BrickWall} {
			g := b.Gain(freq)
			if g <= 0 || g > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBarrierApplyShapesSpectrum(t *testing.T) {
	const fs = 16000.0
	low := dsp.Tone(150, 1, 0.5, fs)
	high := dsp.Tone(3000, 1, 0.5, fs)
	mixed := dsp.Mix(low, high)
	out := GlassWindow.Apply(mixed, fs)
	spec := dsp.MagnitudeSpectrum(out)
	lowBin := dsp.FrequencyBin(150, len(out), fs)
	highBin := dsp.FrequencyBin(3000, len(out), fs)
	if spec[highBin] > spec[lowBin]*0.2 {
		t.Errorf("high tone %v not attenuated relative to low %v", spec[highBin], spec[lowBin])
	}
}

func TestBarrierValidate(t *testing.T) {
	if err := GlassWindow.Validate(); err != nil {
		t.Errorf("standard barrier invalid: %v", err)
	}
	bad := Barrier{Material: Material(9), ThicknessCM: 1}
	if err := bad.Validate(); err == nil {
		t.Error("unknown material should error")
	}
	bad = Barrier{Material: Glass, ThicknessCM: 0}
	if err := bad.Validate(); err == nil {
		t.Error("zero thickness should error")
	}
}

func TestSpreadingGain(t *testing.T) {
	if g := SpreadingGain(1); g != 1 {
		t.Errorf("gain at 1m = %v", g)
	}
	if g := SpreadingGain(2); g != 0.5 {
		t.Errorf("gain at 2m = %v", g)
	}
	// Near-field clamp.
	if g := SpreadingGain(0.01); g != 10 {
		t.Errorf("clamped gain = %v", g)
	}
	// Monotone decreasing beyond the clamp.
	if SpreadingGain(5) >= SpreadingGain(3) {
		t.Error("spreading gain not decreasing")
	}
}

func TestPropagate(t *testing.T) {
	x := []float64{1, -1}
	y := Propagate(x, 4)
	if y[0] != 0.25 || y[1] != -0.25 {
		t.Errorf("Propagate = %v", y)
	}
}

func TestAmbientNoiseLevelAndShape(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const fs = 16000.0
	noise := AmbientNoise(16384, 40, fs, rng)
	spl := dsp.AmplitudeToSPL(dsp.RMS(noise))
	if math.Abs(spl-40) > 0.5 {
		t.Errorf("ambient noise SPL = %v, want 40", spl)
	}
	// Pink-ish: low band power above high band power.
	spec := dsp.PowerSpectrum(noise)
	lowSum, highSum := 0.0, 0.0
	for k := dsp.FrequencyBin(30, len(noise), fs); k <= dsp.FrequencyBin(300, len(noise), fs); k++ {
		lowSum += spec[k]
	}
	for k := dsp.FrequencyBin(4000, len(noise), fs); k <= dsp.FrequencyBin(7000, len(noise), fs); k++ {
		highSum += spec[k]
	}
	lowBins := dsp.FrequencyBin(300, len(noise), fs) - dsp.FrequencyBin(30, len(noise), fs)
	highBins := dsp.FrequencyBin(7000, len(noise), fs) - dsp.FrequencyBin(4000, len(noise), fs)
	if lowSum/float64(lowBins) < 2*highSum/float64(highBins) {
		t.Error("ambient noise is not low-frequency weighted")
	}
	if AmbientNoise(0, 40, fs, rng) != nil {
		t.Error("zero-length noise should be nil")
	}
}
