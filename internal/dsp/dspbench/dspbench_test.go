package dspbench

import (
	"math"
	"testing"
)

func TestDecimateSampleHold(t *testing.T) {
	x := []float64{0, 1, 2, 3, 4, 5, 6}
	out, err := DecimateSampleHold(x, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 3, 6}
	if len(out) != len(want) {
		t.Fatalf("len = %d", len(out))
	}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("out[%d] = %v, want %v", i, out[i], want[i])
		}
	}
	if _, err := DecimateSampleHold(x, 0); err == nil {
		t.Error("zero factor should error")
	}
}

func TestDecimateSampleHoldEdgeFactors(t *testing.T) {
	x := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	if _, err := DecimateSampleHold(x, -2); err == nil {
		t.Error("negative factor should error")
	}
	one, err := DecimateSampleHold(x, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != len(x) {
		t.Errorf("factor 1 changed length: %d", len(one))
	}
	for i := range x {
		if one[i] != x[i] {
			t.Fatalf("factor 1 changed sample %d", i)
		}
	}
}

func TestPreEmphasis(t *testing.T) {
	x := []float64{1, 1, 1}
	y := PreEmphasis(x, 0.97)
	if y[0] != 1 {
		t.Errorf("y[0] = %v, want 1", y[0])
	}
	if math.Abs(y[1]-0.03) > 1e-12 || math.Abs(y[2]-0.03) > 1e-12 {
		t.Errorf("y = %v, want [1 0.03 0.03]", y)
	}
}
