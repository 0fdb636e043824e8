package dsp

import (
	"math"
	"testing"
)

func sine(n int, freq, fs float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Sin(2 * math.Pi * freq * float64(i) / fs)
	}
	return out
}

func TestResampleIdentityRate(t *testing.T) {
	x := sine(1000, 440, 16000)
	y, err := Resample(x, 16000, 16000)
	if err != nil {
		t.Fatal(err)
	}
	if len(y) != len(x) {
		t.Fatalf("identity resample changed length: %d -> %d", len(x), len(y))
	}
	for i := range x {
		if y[i] != x[i] {
			t.Fatalf("identity resample changed sample %d: %v -> %v", i, x[i], y[i])
		}
	}
	// The output must be a copy, not an alias.
	y[0] = 99
	if x[0] == 99 {
		t.Error("identity resample aliases its input")
	}
}

func TestResampleRatios(t *testing.T) {
	x := sine(16000, 100, 16000)
	cases := []struct {
		fsIn, fsOut float64
		wantLen     int
	}{
		{16000, 8000, 8000},
		{16000, 4000, 4000},
		{16000, 32000, 32000},
		{16000, 48000, 48000},
		{16000, 200, 200},
	}
	for _, tc := range cases {
		y, err := Resample(x, tc.fsIn, tc.fsOut)
		if err != nil {
			t.Fatal(err)
		}
		if len(y) != tc.wantLen {
			t.Errorf("%v->%v: length %d, want %d", tc.fsIn, tc.fsOut, len(y), tc.wantLen)
		}
	}
}

// TestResampleRoundTripError bounds the error of down-then-up resampling a
// smooth signal: linear interpolation of a 100 Hz tone sampled at 4 kHz has
// per-sample error well under 1%.
func TestResampleRoundTripError(t *testing.T) {
	x := sine(16000, 100, 16000)
	down, err := Resample(x, 16000, 4000)
	if err != nil {
		t.Fatal(err)
	}
	up, err := Resample(down, 4000, 16000)
	if err != nil {
		t.Fatal(err)
	}
	n := len(x)
	if len(up) < n {
		n = len(up)
	}
	// Skip the tail, where the sample-and-hold boundary dominates.
	n -= 16
	var maxErr float64
	for i := 0; i < n; i++ {
		if e := math.Abs(up[i] - x[i]); e > maxErr {
			maxErr = e
		}
	}
	if maxErr > 0.01 {
		t.Errorf("round-trip max error %v exceeds 0.01", maxErr)
	}
}

// TestResamplePreservesToneFrequency verifies the interpolation does not
// shift a tone: a 50 Hz sine resampled to 8 kHz must still cross zero
// ~100 times per second.
func TestResamplePreservesToneFrequency(t *testing.T) {
	x := sine(32000, 50, 16000) // 2 seconds
	y, err := Resample(x, 16000, 8000)
	if err != nil {
		t.Fatal(err)
	}
	crossings := 0
	for i := 1; i < len(y); i++ {
		if (y[i-1] < 0) != (y[i] < 0) {
			crossings++
		}
	}
	// 2 s of 50 Hz: 200 half-periods; allow boundary slop.
	if crossings < 196 || crossings > 202 {
		t.Errorf("zero crossings = %d, want ~199", crossings)
	}
}

func TestResampleNegativeInputRate(t *testing.T) {
	if _, err := Resample([]float64{1, 2, 3}, -16000, 8000); err == nil {
		t.Error("negative input rate should error")
	}
}

func TestResampleTinyInput(t *testing.T) {
	// A one-sample input must survive even an extreme downsample.
	y, err := Resample([]float64{0.7}, 16000, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(y) != 1 || y[0] != 0.7 {
		t.Errorf("tiny input: %v", y)
	}
}
