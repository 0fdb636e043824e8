package detector

import (
	"math"
	"testing"

	"vibguard/internal/device"
)

// newThresholdDetector builds a detector with the given decision threshold
// (everything else default).
func newThresholdDetector(t *testing.T, threshold float64) *Detector {
	t.Helper()
	cfg := DefaultConfig(device.NewFossilGen5())
	cfg.Threshold = threshold
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDetectBoundary pins the exact decision boundary: Detect is a strict
// less-than, so a score exactly at the threshold — and the next float64
// above it — passes, while the next float64 below it is flagged. The
// Nextafter cases make the contract bit-exact: moving the score by one ULP
// across the threshold must flip the verdict, and nothing closer can.
func TestDetectBoundary(t *testing.T) {
	cases := []struct {
		name       string
		threshold  float64
		score      float64
		wantAttack bool
	}{
		{"default at threshold", DefaultThreshold, DefaultThreshold, false},
		{"default one ulp below", DefaultThreshold, math.Nextafter(DefaultThreshold, math.Inf(-1)), true},
		{"default one ulp above", DefaultThreshold, math.Nextafter(DefaultThreshold, math.Inf(1)), false},
		{"default well below", DefaultThreshold, 0.1, true},
		{"default well above", DefaultThreshold, 0.9, false},
		{"custom at threshold", 0.7, 0.7, false},
		{"custom one ulp below", 0.7, math.Nextafter(0.7, math.Inf(-1)), true},
		{"custom one ulp above", 0.7, math.Nextafter(0.7, math.Inf(1)), false},
		{"zero threshold at", 0, 0, false},
		{"zero threshold below", 0, math.Nextafter(0, math.Inf(-1)), true},
		{"negative score below threshold", DefaultThreshold, -0.3, true},
		{"perfect correlation", DefaultThreshold, 1, false},
		{"perfect anticorrelation", DefaultThreshold, -1, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := newThresholdDetector(t, tc.threshold)
			if got := d.Detect(tc.score); got != tc.wantAttack {
				t.Errorf("Detect(%v) with threshold %v = %v, want %v",
					tc.score, tc.threshold, got, tc.wantAttack)
			}
		})
	}
}

// TestDetectNonFiniteScores documents how the boundary treats non-finite
// scores if one ever reaches Detect (Score refuses to return them): NaN
// compares false against everything so it passes, which is exactly why the
// pipeline must keep returning ErrNonFiniteScore upstream.
func TestDetectNonFiniteScores(t *testing.T) {
	d := newThresholdDetector(t, DefaultThreshold)
	if d.Detect(math.NaN()) {
		t.Error("NaN < threshold must compare false; the guard lives in Score, not Detect")
	}
	if !d.Detect(math.Inf(-1)) {
		t.Error("-Inf is below any threshold")
	}
	if d.Detect(math.Inf(1)) {
		t.Error("+Inf is above any threshold")
	}
}
