package dsp

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMelHzRoundTrip(t *testing.T) {
	f := func(hz float64) bool {
		hz = math.Abs(math.Mod(hz, 8000))
		back := MelToHz(HzToMel(hz))
		return math.Abs(back-hz) < 1e-6*(1+hz)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMelScaleMonotonic(t *testing.T) {
	prev := -1.0
	for hz := 0.0; hz <= 8000; hz += 50 {
		m := HzToMel(hz)
		if m <= prev {
			t.Fatalf("mel scale not monotonic at %vHz", hz)
		}
		prev = m
	}
}

func TestMelFilterbankCoverage(t *testing.T) {
	fb, err := NewMelFilterbank(40, 512, 16000, 0, 900)
	if err != nil {
		t.Fatal(err)
	}
	if fb.NumChannels() != 40 {
		t.Fatalf("channels = %d", fb.NumChannels())
	}
	// A flat power spectrum should produce positive energy in every channel.
	power := make([]float64, 257)
	for i := range power {
		power[i] = 1
	}
	out, err := fb.Apply(power)
	if err != nil {
		t.Fatal(err)
	}
	for c, v := range out {
		if v <= 0 {
			t.Errorf("channel %d has zero energy on flat spectrum", c)
		}
	}
}

func TestMelFilterbankSelectsBand(t *testing.T) {
	const fs = 16000.0
	fb, err := NewMelFilterbank(10, 512, fs, 0, 4000)
	if err != nil {
		t.Fatal(err)
	}
	// Power only at ~3500Hz: top channels should dominate bottom ones.
	power := make([]float64, 257)
	power[FrequencyBin(3500, 512, fs)] = 100
	out, err := fb.Apply(power)
	if err != nil {
		t.Fatal(err)
	}
	low := out[0] + out[1] + out[2]
	high := out[7] + out[8] + out[9]
	if high <= low {
		t.Errorf("high-band energy %v not above low-band %v", high, low)
	}
}

func TestMelFilterbankErrors(t *testing.T) {
	if _, err := NewMelFilterbank(0, 512, 16000, 0, 900); err == nil {
		t.Error("zero channels should error")
	}
	if _, err := NewMelFilterbank(10, 512, 16000, 900, 100); err == nil {
		t.Error("inverted band should error")
	}
	if _, err := NewMelFilterbank(10, 512, 16000, 0, 9000); err == nil {
		t.Error("band above Nyquist should error")
	}
	fb, err := NewMelFilterbank(10, 512, 16000, 0, 900)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fb.Apply(make([]float64, 10)); err == nil {
		t.Error("wrong bin count should error")
	}
}

func TestDCT2KnownValues(t *testing.T) {
	// DCT of a constant vector concentrates everything in coefficient 0.
	x := []float64{1, 1, 1, 1}
	out := NewDCT2Table(4, 4).Apply(nil, x)
	if math.Abs(out[0]-2) > 1e-12 { // sqrt(1/4)*4 = 2
		t.Errorf("c0 = %v, want 2", out[0])
	}
	for k := 1; k < 4; k++ {
		if math.Abs(out[k]) > 1e-12 {
			t.Errorf("c%d = %v, want 0", k, out[k])
		}
	}
}

func TestDCT2Energy(t *testing.T) {
	// Orthonormal DCT preserves energy when all coefficients are kept.
	x := []float64{0.3, -1.2, 2.5, 0.7, -0.1}
	out := NewDCT2Table(len(x), len(x)).Apply(nil, x)
	if math.Abs(Energy(x)-Energy(out)) > 1e-9 {
		t.Errorf("energy %v -> %v not preserved", Energy(x), Energy(out))
	}
}

func TestDCT2Truncation(t *testing.T) {
	x := make([]float64, 40)
	out := NewDCT2Table(40, 14).Apply(nil, x)
	if len(out) != 14 {
		t.Errorf("len = %d, want 14", len(out))
	}
	if NewDCT2Table(0, 5).Apply(nil, nil) != nil {
		t.Error("empty input should return nil")
	}
	if NewDCT2Table(40, 0).Apply(nil, x) != nil {
		t.Error("zero coeffs should return nil")
	}
	tab := NewDCT2Table(2, 10)
	if got := tab.Apply(nil, []float64{1, 2}); len(got) != 2 || tab.NumCoeffs() != 2 {
		t.Errorf("over-request should clamp: len = %d", len(got))
	}
}
