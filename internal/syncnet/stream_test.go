package syncnet

import (
	"math"
	"math/rand"
	"testing"
)

// streamScenario builds a noisy VA signal and a delayed wearable copy.
func streamScenario(rng *rand.Rand, n, delay int) (va, wear []float64) {
	va = make([]float64, n)
	for i := range va {
		va[i] = math.Sin(2*math.Pi*180*float64(i)/16000) + 0.1*rng.NormFloat64()
	}
	wear = make([]float64, n+delay)
	for i := range wear {
		if i < delay {
			wear[i] = 0.01 * rng.NormFloat64()
		} else {
			wear[i] = va[i-delay] + 0.05*rng.NormFloat64()
		}
	}
	return va, wear
}

// TestStreamAlignerConvergesIncrementally: fed growing prefixes, the
// aligner must converge on the true delay, report it stable, and agree
// with the batch estimate on the full recordings.
func TestStreamAlignerConvergesIncrementally(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const delay = 1600 // 100 ms at 16 kHz
	va, wear := streamScenario(rng, 16000, delay)

	a := NewStreamAligner(0.5, 16000)

	// Too-short prefixes must refuse to estimate.
	if tau, stable := a.Estimate(va[:10], wear[:10]); stable || tau != 0 {
		t.Fatalf("estimate on a 10-sample prefix: tau=%d stable=%v", tau, stable)
	}

	var tau int
	var stable bool
	// Feed prefixes in 0.1 s steps, the wearable trailing slightly.
	for n := 4000; n <= len(va); n += 1600 {
		wn := n + delay
		if wn > len(wear) {
			wn = len(wear)
		}
		tau, stable = a.Estimate(va[:n], wear[:wn])
	}
	if !stable {
		t.Fatal("aligner never reported a stable estimate on a clean delayed copy")
	}
	if diff := tau - delay; diff < -2 || diff > 2 {
		t.Fatalf("incremental tau = %d, want about %d", tau, delay)
	}
}

// TestStreamAlignerRecoversFromBadCoarseEstimate: when the refinement hits
// its window edge, the aligner must redo a full search instead of walking
// a wrong first estimate a window at a time.
func TestStreamAlignerRecoversFromBadCoarseEstimate(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const delay = 3200
	va, wear := streamScenario(rng, 24000, delay)

	a := NewStreamAligner(0.5, 16000)
	// Poison the first pass with a short misleading prefix, then feed real
	// prefixes; the edge-hit fallback must still find the true delay.
	a.Estimate(va[:a.minVA], wear[:a.minVA])
	var tau int
	var stable bool
	for n := 8000; n <= len(va); n += 1600 {
		wn := n + delay
		if wn > len(wear) {
			wn = len(wear)
		}
		tau, stable = a.Estimate(va[:n], wear[:wn])
	}
	if !stable {
		t.Fatal("aligner never stabilized after a bad first estimate")
	}
	if diff := tau - delay; diff < -2 || diff > 2 {
		t.Fatalf("recovered tau = %d, want about %d", tau, delay)
	}
}

// TestStreamAlignerEmptyWearable: an empty wearable prefix must not panic
// or estimate.
func TestStreamAlignerEmptyWearable(t *testing.T) {
	a := NewStreamAligner(0.5, 16000)
	if tau, stable := a.Estimate(make([]float64, 8000), nil); stable || tau != 0 {
		t.Fatalf("estimate with no wearable audio: tau=%d stable=%v", tau, stable)
	}
}
