package dsp

import (
	"math"
	"testing"
)

func TestToneProperties(t *testing.T) {
	const fs = 16000.0
	x := Tone(440, 0.5, 1.0, fs)
	if len(x) != 16000 {
		t.Fatalf("len = %d", len(x))
	}
	if MaxAbs(x) > 0.5+1e-9 {
		t.Errorf("amplitude exceeded: %v", MaxAbs(x))
	}
	// RMS of a sine is A/sqrt(2).
	if math.Abs(RMS(x)-0.5/math.Sqrt2) > 1e-3 {
		t.Errorf("RMS = %v", RMS(x))
	}
}

func TestChirpSweepsFrequency(t *testing.T) {
	const fs = 16000.0
	x := Chirp(500, 2500, 1, 2, fs)
	if len(x) != 32000 {
		t.Fatalf("len = %d", len(x))
	}
	// Check instantaneous frequency via spectral peak in early vs late windows.
	early := x[:2048]
	late := x[len(x)-2048:]
	peakFreq := func(seg []float64) float64 {
		mag := MagnitudeSpectrum(seg)
		best, bestV := 0, 0.0
		for i, v := range mag {
			if v > bestV {
				best, bestV = i, v
			}
		}
		return BinFrequency(best, len(seg), fs)
	}
	fEarly, fLate := peakFreq(early), peakFreq(late)
	if fEarly > 900 {
		t.Errorf("early chirp frequency %v, want < 900", fEarly)
	}
	if fLate < 2000 {
		t.Errorf("late chirp frequency %v, want > 2000", fLate)
	}
	if len(Chirp(1, 2, 1, 0, fs)) != 0 {
		t.Error("zero duration chirp should be empty")
	}
}

func TestMixAndConcat(t *testing.T) {
	a := []float64{1, 2}
	b := []float64{10, 20, 30}
	m := Mix(a, b)
	if len(m) != 3 || m[0] != 11 || m[1] != 22 || m[2] != 30 {
		t.Errorf("Mix = %v", m)
	}
	c := Concat(a, b)
	if len(c) != 5 || c[0] != 1 || c[4] != 30 {
		t.Errorf("Concat = %v", c)
	}
	if len(Mix()) != 0 {
		t.Error("empty Mix should be empty")
	}
}

func TestScale(t *testing.T) {
	x := []float64{1, -2}
	y := Scale(x, 3)
	if y[0] != 3 || y[1] != -6 {
		t.Errorf("Scale = %v", y)
	}
	if x[0] != 1 {
		t.Error("Scale modified input")
	}
}

func TestFadeEdges(t *testing.T) {
	x := make([]float64, 100)
	for i := range x {
		x[i] = 1
	}
	FadeEdges(x, 10)
	if x[0] != 0 {
		t.Errorf("first sample = %v, want 0", x[0])
	}
	if x[50] != 1 {
		t.Errorf("middle sample = %v, want 1", x[50])
	}
	if x[len(x)-1] != 0 {
		t.Errorf("last sample = %v, want 0", x[len(x)-1])
	}
	short := []float64{1, 1}
	FadeEdges(short, 10) // must not panic
}

func TestDBConversions(t *testing.T) {
	if db := AmplitudeToDB(1); db != 0 {
		t.Errorf("0 dB for unit amplitude, got %v", db)
	}
	if db := AmplitudeToDB(10); math.Abs(db-20) > 1e-12 {
		t.Errorf("20 dB for 10x, got %v", db)
	}
	if db := AmplitudeToDB(0); db != -120 {
		t.Errorf("floor = %v, want -120", db)
	}
	if a := DBToAmplitude(20); math.Abs(a-10) > 1e-12 {
		t.Errorf("DBToAmplitude(20) = %v", a)
	}
	// Round trip.
	for _, a := range []float64{0.001, 0.5, 1, 42} {
		back := DBToAmplitude(AmplitudeToDB(a))
		if math.Abs(back-a) > 1e-9*a {
			t.Errorf("roundtrip %v -> %v", a, back)
		}
	}
}

func TestSPLCalibration(t *testing.T) {
	if a := SPLToAmplitude(94); math.Abs(a-1) > 1e-12 {
		t.Errorf("94 dB SPL = %v, want 1.0", a)
	}
	// 75dB is ~0.112 amplitude.
	a75 := SPLToAmplitude(75)
	if math.Abs(a75-0.1122) > 0.001 {
		t.Errorf("75 dB SPL = %v", a75)
	}
	// Louder SPL => larger amplitude.
	if SPLToAmplitude(85) <= SPLToAmplitude(65) {
		t.Error("SPL mapping not monotonic")
	}
	if spl := AmplitudeToSPL(SPLToAmplitude(65)); math.Abs(spl-65) > 1e-9 {
		t.Errorf("SPL roundtrip = %v", spl)
	}
}

func TestNormalizeRMS(t *testing.T) {
	x := Tone(100, 2, 0.1, 1000)
	y, err := NormalizeRMS(x, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(RMS(y)-0.25) > 1e-9 {
		t.Errorf("RMS after normalize = %v", RMS(y))
	}
	silent := make([]float64, 10)
	z, err := NormalizeRMS(silent, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if RMS(z) != 0 {
		t.Error("silent signal should remain silent")
	}
	if _, err := NormalizeRMS(x, -1); err == nil {
		t.Error("negative target should error")
	}
}

func TestResampleDownUp(t *testing.T) {
	const fs = 16000.0
	x := Tone(50, 1, 0.5, fs)
	down, err := Resample(x, fs, 200)
	if err != nil {
		t.Fatal(err)
	}
	wantLen := int(0.5 * 200)
	if math.Abs(float64(len(down)-wantLen)) > 2 {
		t.Errorf("downsampled len = %d, want about %d", len(down), wantLen)
	}
	// A 50Hz tone is below the new Nyquist (100Hz) and should survive.
	mag := MagnitudeSpectrum(down)
	best, bestV := 0, 0.0
	for i, v := range mag {
		if v > bestV {
			best, bestV = i, v
		}
	}
	gotFreq := BinFrequency(best, len(down), 200)
	if math.Abs(gotFreq-50) > 5 {
		t.Errorf("peak at %vHz, want 50Hz", gotFreq)
	}
}

func TestResampleAliasing(t *testing.T) {
	const fs = 16000.0
	// A 150Hz tone sampled at 200Hz aliases to |150-200| = 50Hz.
	x := Tone(150, 1, 1.0, fs)
	down, err := Resample(x, fs, 200)
	if err != nil {
		t.Fatal(err)
	}
	mag := MagnitudeSpectrum(down)
	best, bestV := 0, 0.0
	for i, v := range mag {
		if v > bestV {
			best, bestV = i, v
		}
	}
	gotFreq := BinFrequency(best, len(down), 200)
	if math.Abs(gotFreq-50) > 5 {
		t.Errorf("aliased peak at %vHz, want 50Hz", gotFreq)
	}
}

func TestResampleErrors(t *testing.T) {
	if _, err := Resample([]float64{1}, 0, 100); err == nil {
		t.Error("zero input rate should error")
	}
	if _, err := Resample([]float64{1}, 100, -1); err == nil {
		t.Error("negative output rate should error")
	}
	out, err := Resample(nil, 100, 50)
	if err != nil || out != nil {
		t.Errorf("empty input: %v, %v", out, err)
	}
}
