package syncnet

import "vibguard/internal/dsp"

// StreamAligner estimates the wearable offset of Eq. (5) incrementally as
// chunks arrive: the first usable prefix gets the full search over the
// whole lag range (dsp.EstimateDelay, the estimator AlignRecordings runs),
// later prefixes refine the estimate with a cheap direct search in a
// narrow window around it (and fall back to a full search if the
// refinement runs into the window edge — the peak has moved as audio
// arrived). The estimate is reported stable once two
// consecutive evaluations agree within a couple of samples; the streaming
// pipeline only trusts a stable offset for provisional early-exit scoring.
// The batch path's final alignment (AlignRecordings on the complete
// recordings) remains the authoritative one.
//
// Not safe for concurrent use.
type StreamAligner struct {
	maxLagSeconds float64
	sampleRate    float64

	minVA        int // VA samples required before the first estimate
	refineWindow int // half-width of the refinement search, in samples

	tau          int
	haveEstimate bool
	stableRuns   int
}

// stableTolerance is the sample slack within which two consecutive
// estimates count as agreeing.
const stableTolerance = 2

// NewStreamAligner builds an incremental delay estimator with the same lag
// bound semantics as AlignRecordings.
func NewStreamAligner(maxLagSeconds, sampleRate float64) *StreamAligner {
	minVA := int(0.25 * sampleRate)
	if minVA < 16 {
		minVA = 16
	}
	refine := int(0.025 * sampleRate)
	if refine < 8 {
		refine = 8
	}
	return &StreamAligner{
		maxLagSeconds: maxLagSeconds,
		sampleRate:    sampleRate,
		minVA:         minVA,
		refineWindow:  refine,
	}
}

// Estimate updates the delay estimate from the current recording prefixes
// and returns it together with whether it is stable (two consecutive
// evaluations agreeing within stableTolerance samples). Before enough VA
// audio has arrived it returns (0, false) without searching.
func (a *StreamAligner) Estimate(va, wear []float64) (tau int, stable bool) {
	if len(va) < a.minVA || len(wear) == 0 {
		return a.tau, false
	}
	maxLag := maxLagSamples(len(wear), a.maxLagSeconds, a.sampleRate)
	if !a.haveEstimate {
		a.tau = dsp.EstimateDelay(va, wear, maxLag)
		a.haveEstimate = true
		a.stableRuns = 0
		return a.tau, false
	}
	lo, hi := a.tau-a.refineWindow, a.tau+a.refineWindow
	if lo < 0 {
		lo = 0
	}
	if hi > maxLag {
		hi = maxLag
	}
	t := dsp.EstimateDelayRange(va, wear, lo, hi)
	if (t == lo && lo > 0) || (t == hi && hi < maxLag) {
		// The peak sits at the window edge: the earlier estimate missed.
		// Redo the full search and restart the stability count.
		t = dsp.EstimateDelay(va, wear, maxLag)
		a.stableRuns = 0
	} else if abs(t-a.tau) <= stableTolerance {
		a.stableRuns++
	} else {
		a.stableRuns = 0
	}
	a.tau = t
	return a.tau, a.stableRuns >= 1
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
