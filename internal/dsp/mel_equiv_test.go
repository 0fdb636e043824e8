package dsp_test

import (
	"math"
	"testing"

	"vibguard/internal/dsp"
	"vibguard/internal/dsp/dspbench"
)

// TestDCT2TableBitIdenticalToLegacy pins the precomputed cosine table
// against the historical per-call DCT2 loop bit for bit, on the MFCC shape
// (40 inputs, 14 coefficients), full and clamped coefficient counts, odd
// lengths, and non-finite inputs.
func TestDCT2TableBitIdenticalToLegacy(t *testing.T) {
	cases := []struct{ n, coeffs int }{{40, 14}, {40, 40}, {7, 3}, {5, 9}, {1, 1}, {26, 13}}
	for _, tc := range cases {
		tab := dsp.NewDCT2Table(tc.n, tc.coeffs)
		for seed := int64(0); seed < 4; seed++ {
			x := randomReal(tc.n, seed)
			if seed == 3 {
				x[0] = math.Inf(-1)
			}
			want := dspbench.DCT2Legacy(x, tc.coeffs)
			got := tab.Apply(nil, x)
			if i := sameFloatBits(got, want); i >= 0 {
				t.Fatalf("n=%d coeffs=%d seed=%d: coefficient %d differs (len %d vs %d)", tc.n, tc.coeffs, seed, i, len(got), len(want))
			}
			// A reused destination gives the same bits.
			again := tab.Apply(make([]float64, tab.NumCoeffs()), x)
			if i := sameFloatBits(again, want); i >= 0 {
				t.Fatalf("n=%d coeffs=%d: reused dst differs at %d", tc.n, tc.coeffs, i)
			}
		}
	}
}

// TestMelRangeBitIdenticalToDenseScan pins the range-limited filterbank
// against the historical scan of every bin, including a +Inf power bin
// under zero weights and a NaN bin, which must poison exactly the same
// channels in both.
func TestMelRangeBitIdenticalToDenseScan(t *testing.T) {
	banks := []struct {
		channels, fftSize int
		rate, lo, hi      float64
	}{
		{40, 512, 16000, 0, 900}, // the MFCC configuration
		{26, 512, 16000, 0, 8000},
		{10, 64, 200, 5, 100},
	}
	for _, bk := range banks {
		fb, err := dsp.NewMelFilterbank(bk.channels, bk.fftSize, bk.rate, bk.lo, bk.hi)
		if err != nil {
			t.Fatal(err)
		}
		bins := bk.fftSize/2 + 1
		for seed := int64(0); seed < 4; seed++ {
			power := randomReal(bins, seed)
			for i := range power {
				power[i] *= power[i]
			}
			switch seed {
			case 2:
				power[bins-1] = math.Inf(1) // above every filter's support
			case 3:
				power[0] = math.Inf(1)
				power[bins/2] = math.NaN()
			}
			want := dspbench.MelApplyDense(fb, power)
			got, err := fb.ApplyInto(nil, power)
			if err != nil {
				t.Fatal(err)
			}
			if i := sameFloatBits(got, want); i >= 0 {
				t.Fatalf("bank %+v seed %d: channel %d = %v, dense scan %v", bk, seed, i, got[i], want[i])
			}
		}
	}
}
