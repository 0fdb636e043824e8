package mfcc_test

import (
	"math"
	"testing"

	"vibguard/internal/dsp/dspbench"
	"vibguard/internal/mfcc"
)

// TestExtractBitIdenticalToLegacy pins the table-driven extractor (DCT
// cosine table, range-limited filterbank, one backing slice for the rows)
// against the historical per-frame implementation bit for bit.
func TestExtractBitIdenticalToLegacy(t *testing.T) {
	cfg := mfcc.DefaultConfig()
	e, err := mfcc.NewExtractor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{400, 401, 4000, 45840} {
		x := dspbench.Signal(n, int64(n))
		got, err := e.Extract(x)
		if err != nil {
			t.Fatal(err)
		}
		want, err := dspbench.MFCCExtractLegacy(x, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("n=%d: %d frames, legacy %d", n, len(got), len(want))
		}
		for f := range want {
			if len(got[f]) != len(want[f]) || cap(got[f]) != len(got[f]) {
				t.Fatalf("n=%d frame %d: len %d cap %d, legacy len %d", n, f, len(got[f]), cap(got[f]), len(want[f]))
			}
			for k := range want[f] {
				if math.Float64bits(got[f][k]) != math.Float64bits(want[f][k]) {
					t.Fatalf("n=%d frame %d coeff %d: %v, legacy %v", n, f, k, got[f][k], want[f][k])
				}
			}
		}
	}
}

// TestExtractAllocationsIndependentOfLength checks that the coefficient
// rows share one backing slice: a recording ten times longer costs no more
// allocations.
func TestExtractAllocationsIndependentOfLength(t *testing.T) {
	e, err := mfcc.NewExtractor(mfcc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	short, long := dspbench.Signal(4584, 1), dspbench.Signal(45840, 1)
	allocs := func(x []float64) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := e.Extract(x); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a, b := allocs(short), allocs(long); a != b {
		t.Errorf("allocs per Extract: %v for 28 frames, %v for 285 frames", a, b)
	}
}
