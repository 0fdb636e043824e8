package core

import (
	"errors"
	"fmt"
	"math"

	"vibguard/internal/detector"
)

// Score-level multi-wearable fusion. A user with several paired wearables
// (watch, earbud, …) gives the defense several independent cross-domain
// views of the same voice command; each device is scored by the full
// pipeline as if alone (InspectDevices), and the scores are fused here. Fusion
// is at the score level — not the feature level — so a device that failed
// outright (dead link, corrupt recording) simply contributes nothing, and
// the quorum rule is the weakest possible: any single finite score still
// yields a verdict. Barrier-blocked attacks score low on every device that
// actually heard the command, so fusion tightens the legitimate/attack
// margin without making the defense fragile to device loss.

// ErrNoQuorum is returned when fusion has no usable per-device score: every
// device either errored or produced no verdict. The session cannot be
// decided and must be surfaced as a failure, never silently accepted.
var ErrNoQuorum = errors.New("core: fusion quorum failed, no device produced a score")

// DeviceVerdict is one wearable's independently scored view of a session.
type DeviceVerdict struct {
	// Addr is the wearable's address (diagnostics only; fusion does not
	// interpret it).
	Addr string
	// Verdict is the device's pipeline verdict, nil when the device failed.
	Verdict *Verdict
	// Err is the device's pipeline error, nil when Verdict is set.
	Err error
}

// FuseVerdicts fuses per-device verdicts into one session verdict by
// weighted mean over the finite per-device scores, deciding attack at the
// given threshold (detector.DetectAt, the same strict < as Detect).
//
// Each contributing device is weighted by the number of effective-phoneme
// spans its pipeline used (minimum 1, so span-less baseline methods fuse
// too): a device whose view covered more barrier-sensitive phonemes gets
// proportionally more say. When every device segments the same VA audio
// the weights are equal and the fusion degenerates to the plain mean.
//
// The fused verdict's SyncOffset, Spans, Early, and Consumed come from the
// first contributing device (the session's primary wearable), so a
// single-device session fuses to a verdict bit-identical to that device's
// own — fusion is a strict generalization of the single-wearable path.
//
// The returned count is the number of contributing devices. With zero
// contributors FuseVerdicts returns ErrNoQuorum, wrapping the first
// device error for diagnosis.
func FuseVerdicts(devices []DeviceVerdict, threshold float64) (*Verdict, int, error) {
	var (
		sum, wsum float64
		primary   *Verdict
		n         int
	)
	for i := range devices {
		v := devices[i].Verdict
		if devices[i].Err != nil || v == nil || !isFinite(v.Score) {
			continue
		}
		w := float64(len(v.Spans))
		if w < 1 {
			w = 1
		}
		sum += w * v.Score
		wsum += w
		if primary == nil {
			primary = v
		}
		n++
	}
	if n == 0 {
		for i := range devices {
			if devices[i].Err != nil {
				return nil, 0, fmt.Errorf("%w: %s: %v", ErrNoQuorum, devices[i].Addr, devices[i].Err)
			}
		}
		return nil, 0, ErrNoQuorum
	}
	score := primary.Score
	if n > 1 {
		score = sum / wsum
	}
	fused := *primary
	fused.Score = score
	fused.Attack = detector.DetectAt(score, threshold)
	return &fused, n, nil
}

// isFinite reports whether f is neither NaN nor ±Inf.
func isFinite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }
