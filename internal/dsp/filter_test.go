package dsp

import (
	"math"
	"testing"
)

func TestHighPassAttenuatesLowFrequencies(t *testing.T) {
	const fs = 16000.0
	hp, err := NewHighPass(500, fs, math.Sqrt2/2)
	if err != nil {
		t.Fatal(err)
	}
	low := Tone(50, 1, 0.5, fs)
	high := Tone(3000, 1, 0.5, fs)
	lowOut := hp.Process(low)
	highOut := hp.Process(high)
	// Skip transient.
	lowRMS := RMS(lowOut[2000:])
	highRMS := RMS(highOut[2000:])
	if lowRMS > 0.05 {
		t.Errorf("low tone RMS after highpass = %v, want < 0.05", lowRMS)
	}
	if highRMS < 0.6 {
		t.Errorf("high tone RMS after highpass = %v, want > 0.6", highRMS)
	}
}

func TestBandPassSelectsCenter(t *testing.T) {
	const fs = 16000.0
	bp, err := NewBandPass(1000, fs, 2)
	if err != nil {
		t.Fatal(err)
	}
	rCenter := bp.Response(1000, fs)
	rLow := bp.Response(100, fs)
	rHigh := bp.Response(5000, fs)
	if rCenter < 0.9 {
		t.Errorf("center response %v, want near 1", rCenter)
	}
	if rLow > 0.3 || rHigh > 0.3 {
		t.Errorf("stopband responses %v / %v too high", rLow, rHigh)
	}
}

func TestFilterConstructorErrors(t *testing.T) {
	cases := []struct {
		cutoff, fs float64
	}{
		{0, 16000}, {-100, 16000}, {8000, 16000}, {9000, 16000}, {100, 0}, {100, -1},
	}
	for _, c := range cases {
		if _, err := NewHighPass(c.cutoff, c.fs, 0.707); err == nil {
			t.Errorf("NewHighPass(%v, %v) should error", c.cutoff, c.fs)
		}
		if _, err := NewBandPass(c.cutoff, c.fs, 2); err == nil {
			t.Errorf("NewBandPass(%v, %v) should error", c.cutoff, c.fs)
		}
	}
}

func TestBiquadResponseMatchesMeasured(t *testing.T) {
	const fs = 16000.0
	hp, err := NewHighPass(1000, fs, math.Sqrt2/2)
	if err != nil {
		t.Fatal(err)
	}
	// Analytic response at cutoff for Butterworth Q should be ~-3dB.
	r := hp.Response(1000, fs)
	if math.Abs(AmplitudeToDB(r)-(-3)) > 0.5 {
		t.Errorf("response at cutoff = %v dB, want about -3 dB", AmplitudeToDB(r))
	}
	// Measured gain of a steady tone should match the analytic response.
	x := Tone(2500, 1, 0.5, fs)
	y := hp.Process(x)
	measured := RMS(y[2000:]) / RMS(x[2000:])
	analytic := hp.Response(2500, fs)
	if math.Abs(measured-analytic) > 0.02 {
		t.Errorf("measured gain %v vs analytic %v", measured, analytic)
	}
}

func TestBiquadReset(t *testing.T) {
	hp, err := NewHighPass(100, 1000, 0.707)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{1, 1, 1, 1}
	a := hp.Process(x)
	b := hp.Process(x) // Process resets internally
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Process is not stateless across calls at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestFrequencyShapeAppliesGainCurve(t *testing.T) {
	const fs = 16000.0
	x := Mix(Tone(100, 1, 0.25, fs), Tone(3000, 1, 0.25, fs))
	// Kill everything above 1kHz.
	y := FrequencyShape(x, fs, func(f float64) float64 {
		if f > 1000 {
			return 0
		}
		return 1
	})
	if len(y) != len(x) {
		t.Fatalf("length changed: %d -> %d", len(x), len(y))
	}
	spec := MagnitudeSpectrum(y)
	n := NextPow2(len(y))
	_ = n
	binLow := FrequencyBin(100, len(y), fs)
	binHigh := FrequencyBin(3000, len(y), fs)
	// The low tone should dominate the high tone by a large margin.
	if spec[binHigh] > spec[binLow]*0.05 {
		t.Errorf("high bin %v not attenuated vs low bin %v", spec[binHigh], spec[binLow])
	}
}

func TestFrequencyShapeIdentity(t *testing.T) {
	const fs = 1000.0
	x := Tone(100, 1, 0.1, fs)
	y := FrequencyShape(x, fs, func(float64) float64 { return 1 })
	for i := range x {
		if math.Abs(x[i]-y[i]) > 1e-9 {
			t.Fatalf("identity shape changed sample %d: %v vs %v", i, x[i], y[i])
		}
	}
}

func TestFrequencyShapeEmpty(t *testing.T) {
	if out := FrequencyShape(nil, 16000, func(float64) float64 { return 1 }); out != nil {
		t.Error("empty input should return nil")
	}
}

// TestProcessSampleStreamsLikeProcess feeds a signal one sample at a time,
// split across two chunks, and checks the streamed output is bit-identical
// to a whole-signal Process: the state carries across chunks and Reset
// clears it.
func TestProcessSampleStreamsLikeProcess(t *testing.T) {
	const fs = 16000.0
	bp, err := NewBandPass(1000, fs, 2)
	if err != nil {
		t.Fatal(err)
	}
	x := Mix(Tone(300, 1, 0.05, fs), Tone(1000, 0.5, 0.05, fs))
	want := bp.Process(x)
	for pass := 0; pass < 2; pass++ {
		bp.Reset()
		split := len(x) / 3
		for i, v := range x[:split] {
			if got := bp.ProcessSample(v); got != want[i] {
				t.Fatalf("pass %d: first chunk sample %d = %v, want %v", pass, i, got, want[i])
			}
		}
		for i, v := range x[split:] {
			if got := bp.ProcessSample(v); got != want[split+i] {
				t.Fatalf("pass %d: second chunk sample %d = %v, want %v", pass, split+i, got, want[split+i])
			}
		}
	}
}
