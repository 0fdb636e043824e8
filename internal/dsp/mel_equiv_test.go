package dsp_test

import (
	"math"
	"testing"

	"vibguard/internal/dsp"
	"vibguard/internal/dsp/dspbench"
)

// TestDCT2TableBitIdenticalToLegacy pins the precomputed cosine table on
// every kernel against the historical per-call DCT2 loop bit for bit, on
// the MFCC shape (40 inputs, 14 coefficients), full and clamped
// coefficient counts, odd lengths, counts below, at and past one
// 16-coefficient pass, and non-finite inputs.
func TestDCT2TableBitIdenticalToLegacy(t *testing.T) {
	cases := []struct{ n, coeffs int }{{40, 14}, {40, 40}, {7, 3}, {5, 9}, {1, 1}, {26, 13}, {40, 16}, {40, 17}, {41, 33}, {4, 3}}
	for _, name := range dsp.KernelNames() {
		restore := dsp.UseKernel(name)
		for _, tc := range cases {
			tab := dsp.NewDCT2Table(tc.n, tc.coeffs)
			for seed := int64(0); seed < 5; seed++ {
				x := randomReal(tc.n, seed)
				switch seed {
				case 3:
					x[0] = math.Inf(-1)
				case 4:
					x[tc.n-1] = math.NaN()
				}
				want := dspbench.DCT2Legacy(x, tc.coeffs)
				got := tab.Apply(nil, append(x, 1e300)) // a longer x reads only its n values
				if i := sameFloatBits(got, want); i >= 0 {
					t.Fatalf("%s, n=%d coeffs=%d seed=%d: coefficient %d differs (len %d vs %d)", name, tc.n, tc.coeffs, seed, i, len(got), len(want))
				}
				// A reused destination, longer than needed, gives the same bits.
				again := tab.Apply(make([]float64, tab.NumCoeffs()+5), x)
				if i := sameFloatBits(again, want); i >= 0 {
					t.Fatalf("%s, n=%d coeffs=%d: reused dst differs at %d", name, tc.n, tc.coeffs, i)
				}
			}
		}
		restore()
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

// The MFCC extractor unpacks only the power bins up to the filterbank's
// last read bin (LowPowerInto). Each of those bins must carry the bits of
// the full-spectrum PowerInto, for every cut down to DC alone, and the
// filterbank energies of the partial spectrum (zero past the cut) must
// equal those of the full one bit for bit. The MFCC bank (0-900 Hz, 40
// channels, 512 points at 16 kHz) reads bins 0-28 of 257.
func TestMelLowBinsBitIdenticalToFullSpectrum(t *testing.T) {
	for _, bk := range []struct {
		channels, fftSize int
		rate, lo, hi      float64
		last              int
	}{
		{40, 512, 16000, 0, 900, 28},
		{26, 512, 16000, 0, 8000, 255},
		{10, 64, 200, 5, 100, 31},
		{4, 2, 200, 0, 100, 1},
	} {
		fb, err := dsp.NewMelFilterbank(bk.channels, bk.fftSize, bk.rate, bk.lo, bk.hi)
		if err != nil {
			t.Fatal(err)
		}
		if got := fb.LastBin(); got != bk.last {
			t.Errorf("bank %+v: last bin %d, want %d", bk, got, bk.last)
		}
		for c := 0; c < fb.NumChannels(); c++ {
			for k, w := range fb.Weights(c)[fb.LastBin()+1:] {
				if w != 0 {
					t.Fatalf("bank %+v: channel %d weighs bin %d past the last bin", bk, c, fb.LastBin()+1+k)
				}
			}
		}
		plan, err := dsp.PlanRealFFT(bk.fftSize)
		if err != nil {
			t.Fatal(err)
		}
		x := randomReal(bk.fftSize, int64(bk.fftSize))
		full := plan.PowerInto(nil, x, nil)
		for bins := 1; bins <= plan.NumBins(); bins++ {
			if i := sameFloatBits(plan.LowPowerInto(nil, x, nil, bins), full[:bins]); i >= 0 {
				t.Fatalf("n=%d, %d bins: bin %d differs from the full spectrum", bk.fftSize, bins, i)
			}
		}
		low := make([]float64, plan.NumBins())
		plan.LowPowerInto(low, x, plan.Scratch(), fb.LastBin()+1)
		want, _ := fb.Apply(full)
		got, err := fb.Apply(low)
		if err != nil {
			t.Fatal(err)
		}
		if i := sameFloatBits(got, want); i >= 0 {
			t.Fatalf("bank %+v: channel %d = %v from the low bins, %v from the full spectrum", bk, i, got[i], want[i])
		}
	}
}
