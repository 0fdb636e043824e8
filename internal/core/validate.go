package core

import (
	"errors"
	"fmt"
	"math"

	"vibguard/internal/dsp"
)

// Typed recording-validation errors. Inspect classifies corrupt input into
// one of these instead of feeding it to the detectors, where it would
// surface as a garbage score (a half-rate recording correlates near zero
// and flags a legitimate user) or poison every downstream statistic with
// NaN. errors.Is sees through the RecordingIssue wrapper.
var (
	// ErrEmptyRecording marks a recording with no samples.
	ErrEmptyRecording = errors.New("core: empty recording")
	// ErrNonFiniteRecording marks NaN or ±Inf samples (sensor glitches,
	// corrupt transport frames).
	ErrNonFiniteRecording = errors.New("core: recording contains non-finite samples")
	// ErrRecordingTooShort marks a recording below the minimum usable
	// length (a truncated capture).
	ErrRecordingTooShort = errors.New("core: recording too short")
	// ErrLengthMismatch marks a wearable recording whose length is
	// inconsistent with the VA recording beyond what network delay can
	// explain — the signature of a sample-rate mismatch or severe
	// truncation, which cross-correlation cannot align.
	ErrLengthMismatch = errors.New("core: recording length mismatch")
)

// MinInspectSeconds is the shortest recording Inspect accepts. Below one
// sensing STFT window of vibration data there is nothing to correlate.
const MinInspectSeconds = 0.05

// RecordingIssue wraps a typed validation error with the recording it was
// found in.
type RecordingIssue struct {
	// Source is "va" or "wearable".
	Source string
	// Err is one of the typed validation errors.
	Err error
	// Detail locates the problem (sample index, lengths, ...).
	Detail string
}

// Error implements the error interface.
func (e *RecordingIssue) Error() string {
	if e.Detail == "" {
		return fmt.Sprintf("%v (%s recording)", e.Err, e.Source)
	}
	return fmt.Sprintf("%v (%s recording: %s)", e.Err, e.Source, e.Detail)
}

// Unwrap exposes the typed error to errors.Is.
func (e *RecordingIssue) Unwrap() error { return e.Err }

// checkRecording validates one recording: non-empty, finite, long enough.
func checkRecording(source string, x []float64, minSamples int) error {
	if len(x) == 0 {
		return &RecordingIssue{Source: source, Err: ErrEmptyRecording}
	}
	for i, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return &RecordingIssue{Source: source, Err: ErrNonFiniteRecording,
				Detail: fmt.Sprintf("sample %d = %v", i, v)}
		}
	}
	if len(x) < minSamples {
		return &RecordingIssue{Source: source, Err: ErrRecordingTooShort,
			Detail: fmt.Sprintf("%d samples, need >= %d", len(x), minSamples)}
	}
	return nil
}

// dcOffsetTolerance is the largest recording mean treated as natural:
// acoustic captures are zero-mean, so anything beyond this is an ADC bias
// that would distort the Eq. (5) alignment and is removed before scoring.
// Staying well above numeric noise keeps clean recordings bit-untouched, so
// validated and unvalidated scoring paths agree exactly on good input.
const dcOffsetTolerance = 0.01

// removeDCOffset returns x with its mean subtracted when the bias exceeds
// the tolerance, and x itself (no copy) otherwise.
func removeDCOffset(x []float64) []float64 {
	mean := dsp.Mean(x)
	if math.Abs(mean) <= dcOffsetTolerance {
		return x
	}
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = v - mean
	}
	return out
}

// validateDevices validates the recordings of an InspectDevices call and
// returns sanitized versions: fatal corruption (empty, non-finite,
// truncated, length-inconsistent) becomes a typed error in errs[i], while
// benign degradation (DC bias) is repaired in place of failing — graceful
// degradation on the conditions WearID identifies as the practical
// failure mode of wearable-assisted verification. The VA recording is
// checked and repaired once; an invalid one fails every wearable.
func (d *Defense) validateDevices(vaRec []float64, wears [][]float64, errs []error) (va []float64, clean [][]float64) {
	clean = make([][]float64, len(wears))
	minSamples := int(MinInspectSeconds * d.cfg.SampleRate)
	if err := checkRecording("va", vaRec, minSamples); err != nil {
		for i := range errs {
			errs[i] = err
		}
		return nil, clean
	}
	// A wearable recording is the VA recording plus up to
	// MaxSyncLagSeconds of network-delay lead. A length far outside that
	// envelope means the two captures cannot describe the same command.
	maxLead := int(d.cfg.MaxSyncLagSeconds * d.cfg.SampleRate)
	slack := len(vaRec) / 4
	for i, wear := range wears {
		if errs[i] = checkRecording("wearable", wear, minSamples); errs[i] != nil {
			continue
		}
		if len(wear) < len(vaRec)-slack || len(wear) > len(vaRec)+maxLead+slack {
			errs[i] = &RecordingIssue{Source: "wearable", Err: ErrLengthMismatch,
				Detail: fmt.Sprintf("wearable %d samples vs va %d (max lead %d)", len(wear), len(vaRec), maxLead)}
			continue
		}
		clean[i] = removeDCOffset(wear)
	}
	return removeDCOffset(vaRec), clean
}
