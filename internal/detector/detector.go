// Package detector implements the thru-barrier attack detectors compared
// in the evaluation: the paper's full system (2D correlation of
// vibration-domain features on barrier-effect-sensitive phoneme segments,
// Section VI-C), a vibration-domain baseline without phoneme selection,
// and an audio-domain correlation baseline.
//
// All three produce a similarity score in [-1, 1]; legitimate commands
// score high and thru-barrier attacks score low (the adversary's
// low-frequency-dominated sound becomes noisy in the vibration domain), so
// a threshold on the score separates them without any training.
package detector

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"vibguard/internal/device"
	"vibguard/internal/dsp"
	"vibguard/internal/obs"
	"vibguard/internal/segment"
	"vibguard/internal/sensing"
)

// Stage timers of the "pipeline.stage.*" family (see internal/core/obs.go):
// phoneme-select is the span extraction of Section VI-A, correlate the 2D
// correlation of Eq. (6). Both record into the process-wide registry with
// lock-free, allocation-free observations.
var (
	stagePhonemeSelect = obs.Default().StageTimer("pipeline.stage.phoneme-select")
	stageCorrelate     = obs.Default().StageTimer("pipeline.stage.correlate")
)

// DefaultThreshold is the decision threshold on the correlation score,
// calibrated at the equal-error point of the evaluation datasets. It is
// the single source of truth for the default: package core and every
// config path reference it, so the two layers cannot drift apart.
const DefaultThreshold = 0.45

// DefaultSampleRate is the audio sampling rate of all recordings in the
// paper (16 kHz).
const DefaultSampleRate = 16000.0

// Method selects one of the three detectors of the evaluation.
type Method int

// Detection methods.
const (
	// MethodAudio correlates audio-domain spectrograms directly (the
	// audio-domain baseline of Figs. 9-11).
	MethodAudio Method = iota + 1
	// MethodVibration correlates vibration-domain features of the whole
	// command, without phoneme selection (the vibration-domain baseline).
	MethodVibration
	// MethodFull is the proposed system: vibration-domain correlation on
	// barrier-effect-sensitive phoneme segments only.
	MethodFull
)

// String names the method as it appears in the paper's figures.
func (m Method) String() string {
	switch m {
	case MethodAudio:
		return "audio-domain baseline"
	case MethodVibration:
		return "vibration-domain baseline"
	case MethodFull:
		return "our defense system"
	default:
		return "unknown"
	}
}

// Segmenter provides effective-phoneme spans for a VA recording. The
// production implementation is the BRNN detector of package segment; the
// evaluation can also use ground-truth alignments.
type Segmenter interface {
	// EffectiveSpans returns the sample spans of barrier-effect-sensitive
	// phonemes in the recording.
	EffectiveSpans(recording []float64) ([]segment.Span, error)
}

// BRNNSegmenter adapts segment.Detector to the Segmenter interface.
type BRNNSegmenter struct {
	Detector *segment.Detector
}

var _ Segmenter = (*BRNNSegmenter)(nil)

// The coalescer batches concurrent EffectiveSpans calls into single BRNN
// passes; serve workers share one as their segmenter.
var _ Segmenter = (*segment.Coalescer)(nil)

// EffectiveSpans runs frame detection and span merging.
func (s *BRNNSegmenter) EffectiveSpans(recording []float64) ([]segment.Span, error) {
	frames, err := s.Detector.DetectFrames(recording)
	if err != nil {
		return nil, err
	}
	return s.Detector.Spans(frames), nil
}

// StaticSegmenter returns precomputed spans regardless of input, used with
// ground-truth alignments in controlled experiments.
type StaticSegmenter struct {
	Spans []segment.Span
}

var _ Segmenter = (*StaticSegmenter)(nil)

// EffectiveSpans returns the fixed spans.
func (s *StaticSegmenter) EffectiveSpans([]float64) ([]segment.Span, error) {
	return s.Spans, nil
}

// Config parameterizes a detector.
type Config struct {
	// Method selects the detector variant.
	Method Method
	// Wearable performs cross-domain sensing (vibration methods).
	Wearable *device.Wearable
	// Sensing configures vibration feature extraction.
	Sensing sensing.Config
	// AudioFFTSize is the STFT size for the audio-domain baseline.
	AudioFFTSize int
	// Threshold is the decision threshold: scores below it are flagged
	// as attacks.
	Threshold float64
	// SampleRate of the recordings in Hz. The audio-domain baseline's
	// 1 kHz/4 kHz band edges are computed against it.
	SampleRate float64
}

// DefaultConfig returns the full-system configuration with the paper's
// parameters and a threshold calibrated on the evaluation datasets.
func DefaultConfig(w *device.Wearable) Config {
	return Config{
		Method:       MethodFull,
		Wearable:     w,
		Sensing:      sensing.DefaultConfig(),
		AudioFFTSize: 256,
		Threshold:    DefaultThreshold,
		SampleRate:   DefaultSampleRate,
	}
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.SampleRate <= 0 {
		return fmt.Errorf("detector: sample rate %v must be positive", c.SampleRate)
	}
	switch c.Method {
	case MethodAudio:
		if err := dsp.ValidateLength(c.AudioFFTSize); err != nil {
			return fmt.Errorf("detector: %w", err)
		}
	case MethodVibration:
		if c.Wearable == nil {
			return fmt.Errorf("detector: vibration method needs a wearable")
		}
	case MethodFull:
		if c.Wearable == nil {
			return fmt.Errorf("detector: full method needs a wearable")
		}
	default:
		return fmt.Errorf("detector: unknown method %d", c.Method)
	}
	if c.Method != MethodAudio {
		if err := c.Sensing.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Detector scores pairs of recordings and flags thru-barrier attacks.
type Detector struct {
	cfg Config
}

// New creates a detector.
func New(cfg Config) (*Detector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Detector{cfg: cfg}, nil
}

// Method returns the detector's method.
func (d *Detector) Method() Method { return d.cfg.Method }

// Threshold returns the decision threshold.
func (d *Detector) Threshold() float64 { return d.cfg.Threshold }

// ErrNonFiniteScore is returned when a detector produces a NaN or ±Inf
// similarity score — degenerate features from corrupt input. The defense
// layer guarantees callers never see a non-finite score as a value, so a
// threshold comparison can never silently mis-verdict on NaN (which
// compares false against every threshold).
var ErrNonFiniteScore = errors.New("detector: non-finite similarity score")

// ScoreWithSpans computes the similarity score between the VA recording
// and the (already synchronized) wearable recording, using the
// effective-phoneme spans of the VA recording (core runs the segmenter).
// Higher means more likely legitimate; the rng drives the stochastic
// cross-domain sensing. The detector reads only immutable configuration,
// so any number of goroutines may call it at once (each with its own
// rng). The spans are ignored by the audio- and vibration-domain
// baselines. The returned score is always finite; a degenerate
// computation yields ErrNonFiniteScore instead. It is the one-device case
// of ScoreDevices.
func (d *Detector) ScoreWithSpans(vaRec, wearRec []float64, spans []segment.Span, rng *rand.Rand) (float64, error) {
	scores, errs := d.ScoreDevices(vaRec, [][]float64{wearRec}, spans, []*rand.Rand{rng})
	return scores[0], errs[0]
}

// ScoreDevices scores one VA recording against the (already synchronized)
// recordings of several wearables of the configured model, wearRecs[i]
// with rngs[i]. scores[i] and errs[i], and the state rngs[i] is left in,
// are bit-identical to ScoreWithSpans(vaRec, wearRecs[i], spans, rngs[i]);
// the device-independent work runs once: the VA phoneme cut and its
// replay drive (sensing.SenseShared), or the audio-domain spectrum.
func (d *Detector) ScoreDevices(vaRec []float64, wearRecs [][]float64, spans []segment.Span, rngs []*rand.Rand) (scores []float64, errs []error) {
	if len(wearRecs) == 0 {
		return nil, nil
	}
	var res []correlation
	switch d.cfg.Method {
	case MethodAudio:
		score, err := d.audioScore(vaRec)
		res = make([]correlation, len(wearRecs))
		for i := range res {
			res[i] = correlation{score: score, err: err}
		}
	case MethodVibration:
		res = d.correlateSensed(vaRec, wearRecs, rngs)
	default:
		res = d.fullScore(vaRec, wearRecs, spans, rngs)
	}
	scores = make([]float64, len(res))
	errs = make([]error, len(res))
	for i, r := range res {
		scores[i], errs[i] = r.result()
	}
	return scores, errs
}

// Detect reports whether a score indicates a thru-barrier attack.
func (d *Detector) Detect(score float64) bool { return score < d.cfg.Threshold }

// DetectAt is Detect against an explicit threshold — the per-user
// calibrated path: the profile layer supplies an effective threshold
// (DefaultThreshold plus a clamped personal offset) without rebuilding
// the detector. The comparison is identical to Detect's strict <, so
// DetectAt(score, d.Threshold()) ≡ d.Detect(score) bit for bit.
func DetectAt(score, threshold float64) bool { return score < threshold }

// CorrelateSegments senses two already-extracted effective-phoneme segment
// signals in the vibration domain and returns the Eq. (6) correlation
// score together with the number of overlapping (frame, bin) cells that
// entered it — the sample size behind the streaming pipeline's
// confidence-interval early exit. It is the inner loop of fullScore with
// the span extraction hoisted out (the streaming inspector extracts only
// the completed spans itself). MethodFull only; empty segments return the
// minimum score with zero cells, mirroring fullScore's no-usable-content
// rule. The returned score is always finite.
func (d *Detector) CorrelateSegments(vaSeg, wearSeg []float64, rng *rand.Rand) (float64, int, error) {
	if d.cfg.Method != MethodFull {
		return 0, 0, fmt.Errorf("detector: CorrelateSegments needs MethodFull, have %v", d.cfg.Method)
	}
	if len(vaSeg) == 0 || len(wearSeg) == 0 {
		return -1, 0, nil
	}
	c := d.correlateSensed(vaSeg, [][]float64{wearSeg}, []*rand.Rand{rng})[0]
	score, err := c.result()
	if err != nil {
		return 0, 0, err
	}
	return score, c.cells, nil
}

// audioScore is the audio-domain baseline the paper describes (and finds
// unreliable) in Section I: examine the high-frequency spectral energy of
// the VA recording. Thru-barrier sound loses its high band, so a low
// high-frequency energy fraction suggests an attack — but some voices
// inherently have little high-frequency energy, so legitimate commands
// from dark voices at a distance are misclassified, which is exactly the
// weakness Figs. 9-11 quantify. It reads only the VA recording. The
// fraction is mapped through a smooth squash so scores live on the same
// [0, 1) scale as the correlators.
func (d *Detector) audioScore(vaRec []float64) (float64, error) {
	if len(vaRec) == 0 {
		return 0, fmt.Errorf("detector: empty VA recording")
	}
	spec := dsp.PowerSpectrum(vaRec)
	lowCut := dsp.FrequencyBin(1000, len(vaRec), d.cfg.SampleRate)
	highCut := dsp.FrequencyBin(4000, len(vaRec), d.cfg.SampleRate)
	var low, high float64
	for k := 1; k < len(spec); k++ {
		switch {
		case k <= lowCut:
			low += spec[k]
		case k <= highCut:
			high += spec[k]
		}
	}
	if low+high == 0 {
		return 0, nil
	}
	ratio := high / (low + high)
	// Squash: ratio ~0.01 (thru-barrier) maps near 0.2, ratio ~0.1+
	// (direct broadband speech) approaches 1.
	return 1 - math.Exp(-ratio/0.04), nil
}

// correlation is one device's Eq. (6) score, the number of overlapping
// (frame, bin) cells that entered it, or the error that stopped it.
type correlation struct {
	score float64
	cells int
	err   error
}

// result returns the score, or the error with a zero score:
// ErrNonFiniteScore in place of a NaN or infinite score.
func (c correlation) result() (float64, error) {
	if c.err != nil {
		return 0, c.err
	}
	if math.IsNaN(c.score) || math.IsInf(c.score, 0) {
		return 0, ErrNonFiniteScore
	}
	return c.score, nil
}

// fullScore is the proposed system: apply the effective-phoneme spans of
// the VA recording to every recording (Section VI-A), then correlate the
// vibration-domain features of the VA cut with those of each wearable's.
// The phoneme-select stage is observed once for all the cuts.
func (d *Detector) fullScore(vaRec []float64, wearRecs [][]float64, spans []segment.Span, rngs []*rand.Rand) []correlation {
	res := make([]correlation, len(wearRecs))
	var segs [][]float64
	var segRngs []*rand.Rand
	var sensed []int // the device of each of segs
	sp := stagePhonemeSelect.Start()
	vaSeg := segment.ExtractSpans(vaRec, spans)
	for i, wearRec := range wearRecs {
		// No effective phonemes found: the command has no usable content,
		// which itself is suspicious; the minimum score.
		res[i].score = -1
		if len(vaSeg) == 0 {
			continue
		}
		if wearSeg := segment.ExtractSpans(wearRec, spans); len(wearSeg) > 0 {
			segs = append(segs, wearSeg)
			segRngs = append(segRngs, rngs[i])
			sensed = append(sensed, i)
		}
	}
	sp.End()
	for j, c := range d.correlateSensed(vaSeg, segs, segRngs) {
		res[sensed[j]] = c
	}
	return res
}

// correlateSensed senses a against each of bs (sensing.SenseShared, pair i
// drawing from rngs[i]) and returns the Eq. (6) correlation of each pair's
// features. The vibration-domain baseline is this on the whole
// recordings, without phoneme selection.
func (d *Detector) correlateSensed(a []float64, bs [][]float64, rngs []*rand.Rand) []correlation {
	pairs := sensing.SenseShared(d.cfg.Wearable, a, bs, d.cfg.Sensing, rngs)
	res := make([]correlation, len(pairs))
	for i, p := range pairs {
		if p.Err != nil {
			res[i].err = p.Err
			continue
		}
		sp := stageCorrelate.Start()
		res[i].score = dsp.Correlate2D(p.A, p.B)
		sp.End()
		res[i].cells = min(p.A.NumFrames(), p.B.NumFrames()) * min(p.A.NumBins(), p.B.NumBins())
	}
	return res
}
