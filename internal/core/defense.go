// Package core assembles the paper's primary contribution: the
// training-free thru-barrier attack defense. A Defense takes the two
// recordings of a voice command (VA device and wearable), synchronizes
// them with the cross-correlation of Eq. (5), segments the
// barrier-effect-sensitive phonemes, performs cross-domain sensing on the
// wearable, and detects attacks with the 2D-correlation threshold test of
// Eq. (6).
package core

import (
	"fmt"
	"math/rand"

	"vibguard/internal/detector"
	"vibguard/internal/device"
	"vibguard/internal/segment"
	"vibguard/internal/sensing"
	"vibguard/internal/syncnet"
)

// DefaultThreshold is the decision threshold on the 2D correlation score,
// calibrated at the equal-error point of the evaluation datasets. It
// aliases the detector package's constant so the two config layers cannot
// drift apart.
const DefaultThreshold = detector.DefaultThreshold

// Config parameterizes the defense pipeline.
type Config struct {
	// Wearable is the user's smartwatch (speaker + accelerometer).
	Wearable *device.Wearable
	// Segmenter provides effective-phoneme spans of the VA recording.
	Segmenter detector.Segmenter
	// Method selects the detector (MethodFull is the paper's system; the
	// baselines are used for ablation).
	Method detector.Method
	// Sensing configures vibration-domain feature extraction.
	Sensing sensing.Config
	// AudioFFTSize configures the audio-domain baseline.
	AudioFFTSize int
	// Threshold on the correlation score; lower scores are attacks.
	Threshold float64
	// MaxSyncLagSeconds bounds the Eq. (5) delay search.
	MaxSyncLagSeconds float64
	// SampleRate of the recordings in Hz.
	SampleRate float64
}

// DefaultConfig returns the paper's configuration for the given wearable
// and segmenter.
func DefaultConfig(w *device.Wearable, seg detector.Segmenter) Config {
	return Config{
		Wearable:          w,
		Segmenter:         seg,
		Method:            detector.MethodFull,
		Sensing:           sensing.DefaultConfig(),
		AudioFFTSize:      256,
		Threshold:         DefaultThreshold,
		MaxSyncLagSeconds: 0.5,
		SampleRate:        detector.DefaultSampleRate,
	}
}

// Defense is the end-to-end thru-barrier attack detection pipeline. A
// Defense holds no mutable state: every Inspect/Score call reads only the
// immutable configuration and the caller-supplied rng, so one instance is
// safe for concurrent use by multiple goroutines as long as each call gets
// its own rng (and, for MethodFull, the configured Segmenter is itself
// stateless per call).
type Defense struct {
	cfg Config
	det *detector.Detector
	// align is the Eq. (5) alignment of a session's wearables,
	// syncnet.AlignDevices. It is a field so tests can make one device's
	// alignment fail, which validated input never does.
	align func(va []float64, wears [][]float64, maxLagSeconds, sampleRate float64) ([][]float64, []int, []error)
}

// NewDefense builds the pipeline.
func NewDefense(cfg Config) (*Defense, error) {
	if cfg.SampleRate <= 0 {
		return nil, fmt.Errorf("core: sample rate %v must be positive", cfg.SampleRate)
	}
	if cfg.MaxSyncLagSeconds < 0 {
		return nil, fmt.Errorf("core: max sync lag %v must be non-negative", cfg.MaxSyncLagSeconds)
	}
	det, err := detector.New(detector.Config{
		Method:       cfg.Method,
		Wearable:     cfg.Wearable,
		Sensing:      cfg.Sensing,
		AudioFFTSize: cfg.AudioFFTSize,
		Threshold:    cfg.Threshold,
		SampleRate:   cfg.SampleRate,
	})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &Defense{cfg: cfg, det: det, align: syncnet.AlignDevices}, nil
}

// Verdict is the outcome of inspecting one voice command.
type Verdict struct {
	// Score is the 2D correlation similarity in [-1, 1]; legitimate
	// commands score high.
	Score float64
	// Attack is true when the score falls below the threshold.
	Attack bool
	// SyncOffset is the estimated wearable offset in samples (Eq. 5).
	SyncOffset int
	// Spans are the effective-phoneme spans used (MethodFull only).
	Spans []segment.Span
	// Early is true when a streaming session reached this verdict before
	// the recording ended (StreamInspector early exit). Batch verdicts
	// always leave it false.
	Early bool
	// Consumed is the number of VA samples a streaming session had
	// ingested when the verdict was reached (0 for batch verdicts).
	Consumed int
}

// Inspect runs the full pipeline on a VA recording and a raw (unaligned)
// wearable recording and returns the verdict. The rng drives the
// stochastic cross-domain sensing. It is InspectDevices for one wearable.
func (d *Defense) Inspect(vaRec, wearRec []float64, rng *rand.Rand) (*Verdict, error) {
	verdicts, errs := d.InspectDevices(vaRec, [][]float64{wearRec}, []*rand.Rand{rng})
	return verdicts[0], errs[0]
}

// InspectDevices inspects one VA recording against the raw recordings of
// several wearables of the configured model, wears[i] with rngs[i], and
// returns one verdict or error per wearable: each, and the state rngs[i]
// is left in, is the one a lone Inspect(vaRec, wears[i], rngs[i]) gives,
// bit for bit, and the counters move as len(wears) Inspect calls move
// them. The device-independent work runs once: the VA recording is
// validated once, and for MethodFull the segmenter (one BRNN inference in
// production) runs on one forked goroutine while this one aligns the valid
// wearables in one call, which transforms the VA recording once for all
// of them; the spans, which every verdict shares, cut the VA recording
// once for all the wearables' correlations (detector.ScoreDevices). The
// join comes before any return, and each wearable's error keeps the
// sequential precedence: alignment, missing segmenter, segmenter.
//
// This is the production entry point, so it validates the recordings
// first: fatal corruption (empty, non-finite, truncated, or
// length-inconsistent input) gives one of the typed errors of validate.go
// instead of a garbage score, and a DC bias is repaired before scoring.
// Returned scores are guaranteed finite. The Score* fast paths skip this
// and trust their caller (the evaluation engine feeds generator-made
// samples).
func (d *Defense) InspectDevices(vaRec []float64, wears [][]float64, rngs []*rand.Rand) ([]*Verdict, []error) {
	metInspectTotal.Add(uint64(len(wears)))
	verdicts := make([]*Verdict, len(wears))
	errs := make([]error, len(wears))
	va, clean := d.validateDevices(vaRec, wears, errs)
	var valid []int
	for i, err := range errs {
		if err == nil {
			valid = append(valid, i)
		}
	}
	full := d.cfg.Method == detector.MethodFull
	var spans []segment.Span
	var segErr error
	segDone := make(chan struct{})
	if full && d.cfg.Segmenter != nil && len(valid) > 0 {
		go func() {
			defer close(segDone)
			sp := stageSegment.Start()
			spans, segErr = d.cfg.Segmenter.EffectiveSpans(va)
			sp.End()
		}()
	} else {
		close(segDone)
	}
	aligned := make([][]float64, len(wears))
	taus := make([]int, len(wears))
	if len(valid) > 0 {
		sp := stageAlign.Start()
		a, t, e := d.align(va, pick(clean, valid), d.cfg.MaxSyncLagSeconds, d.cfg.SampleRate)
		sp.End()
		for j, i := range valid {
			aligned[i], taus[i], errs[i] = a[j], t[j], e[j]
		}
	}
	<-segDone
	var scored []int
	for _, i := range valid {
		switch {
		case errs[i] != nil:
			errs[i] = fmt.Errorf("core: %w", errs[i])
		case full && d.cfg.Segmenter == nil:
			errs[i] = fmt.Errorf("core: full method needs a segmenter")
		case full && segErr != nil:
			errs[i] = fmt.Errorf("core: %w", segErr)
		default:
			scored = append(scored, i)
		}
	}
	scores, scoreErrs := d.det.ScoreDevices(va, pick(aligned, scored), spans, pick(rngs, scored))
	for j, i := range scored {
		if scoreErrs[j] != nil {
			errs[i] = fmt.Errorf("core: %w", scoreErrs[j])
			continue
		}
		attack := d.det.Detect(scores[j])
		if attack {
			metVerdictAttack.Inc()
		} else {
			metVerdictAccept.Inc()
		}
		verdicts[i] = &Verdict{Score: scores[j], Attack: attack, SyncOffset: taus[i], Spans: spans}
	}
	for _, err := range errs {
		if err != nil {
			metInspectErrors.Inc()
		}
	}
	return verdicts, errs
}

// pick returns the elements of xs at the given indices.
func pick[T any](xs []T, idx []int) []T {
	out := make([]T, len(idx))
	for j, i := range idx {
		out[j] = xs[i]
	}
	return out
}

// Score runs the pipeline and returns only the similarity score; it is the
// unvalidated scoring entry of attack.Oracle. For MethodFull it runs the
// configured Segmenter on the VA recording and scores with ScoreWithSpans,
// so when both the segmenter and the Eq. (5) alignment fail, the
// segmenter's error is the one returned.
func (d *Defense) Score(vaRec, wearRec []float64, rng *rand.Rand) (float64, error) {
	var spans []segment.Span
	if d.cfg.Method == detector.MethodFull {
		if d.cfg.Segmenter == nil {
			return 0, fmt.Errorf("core: full method needs a segmenter")
		}
		var err error
		if spans, err = d.cfg.Segmenter.EffectiveSpans(vaRec); err != nil {
			return 0, fmt.Errorf("core: %w", err)
		}
	}
	return d.ScoreWithSpans(vaRec, wearRec, spans, rng)
}

// ScoreWithSpans runs the pipeline with caller-provided effective-phoneme
// spans instead of the configured Segmenter. It is the per-call span path
// of the parallel evaluation engine: the Defense reads only immutable
// state, so concurrent callers need nothing but their own rng. The spans
// are ignored by the baseline methods.
func (d *Defense) ScoreWithSpans(vaRec, wearRec []float64, spans []segment.Span, rng *rand.Rand) (float64, error) {
	sp := stageAlign.Start()
	aligned, _, errs := d.align(vaRec, [][]float64{wearRec}, d.cfg.MaxSyncLagSeconds, d.cfg.SampleRate)
	sp.End()
	if errs[0] != nil {
		return 0, fmt.Errorf("core: %w", errs[0])
	}
	score, err := d.det.ScoreWithSpans(vaRec, aligned[0], spans, rng)
	if err != nil {
		return 0, fmt.Errorf("core: %w", err)
	}
	return score, nil
}

// Threshold returns the configured decision threshold.
func (d *Defense) Threshold() float64 { return d.cfg.Threshold }

// Method returns the configured detection method.
func (d *Defense) Method() detector.Method { return d.cfg.Method }
