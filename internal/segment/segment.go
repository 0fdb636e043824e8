// Package segment implements the barrier-effect-sensitive phoneme
// segmentation of Section V-B: MFCC features over 25 ms/10 ms frames feed
// a bidirectional LSTM that classifies each frame as "effective phoneme"
// (barrier-effect sensitive) or not. Detected frames are merged into
// sample-accurate segments that the defense extracts and concatenates for
// cross-domain sensing.
package segment

import (
	"encoding/gob"
	"fmt"
	"io"
	"sort"
	"sync"

	"vibguard/internal/brnn"
	"vibguard/internal/dsp"
	"vibguard/internal/mfcc"
	"vibguard/internal/phoneme"
)

// Span is a half-open sample range [Start, End) of detected effective-
// phoneme audio.
type Span struct {
	Start, End int
}

// Len returns the span length in samples.
func (s Span) Len() int { return s.End - s.Start }

// Detector wraps the MFCC extractor, the BRNN model, and the selected
// phoneme set. The model weights are read-only at inference; the mutable
// per-call scratch lives in a pool of brnn.Inference sessions, so one
// Detector can be shared by any number of goroutines (serve workers, the
// parallel evaluation engine) with allocation-free steady-state inference.
type Detector struct {
	ext      *mfcc.Extractor
	model    *brnn.Model
	selected map[string]bool
	scratch  sync.Pool // of *inferScratch
}

// inferScratch is one worker's pooled inference state: a brnn session plus
// the prediction buffer it refills.
type inferScratch struct {
	inf  *brnn.Inference
	pred []int
}

// validateModel enforces the invariants NewDetector promises: the model's
// input dimension matches the MFCC coefficient count and detection is
// binary. Load re-runs it on deserialized models so a stale or mismatched
// detector file fails at load time, not with a confusing dim error (or a
// silent mislabel) later.
func validateModel(m *brnn.Model, mfccCfg mfcc.Config) error {
	if m.InputDim() != mfccCfg.NumCoeffs {
		return fmt.Errorf("segment: model input dim %d != MFCC coeffs %d", m.InputDim(), mfccCfg.NumCoeffs)
	}
	if m.NumClasses() != 2 {
		return fmt.Errorf("segment: detection is binary, got %d classes", m.NumClasses())
	}
	return nil
}

// newDetector assembles a Detector around a validated model.
func newDetector(ext *mfcc.Extractor, model *brnn.Model, selected map[string]bool) *Detector {
	d := &Detector{ext: ext, model: model, selected: selected}
	d.scratch.New = func() any {
		return &inferScratch{inf: model.NewInference()}
	}
	return d
}

// NewDetector creates an untrained detector for the given selected phoneme
// set. The model input dimension must match the MFCC coefficient count.
func NewDetector(selected map[string]bool, modelCfg brnn.Config) (*Detector, error) {
	if len(selected) == 0 {
		return nil, fmt.Errorf("segment: empty selected phoneme set")
	}
	mfccCfg := mfcc.DefaultConfig()
	if modelCfg.InputDim != mfccCfg.NumCoeffs {
		return nil, fmt.Errorf("segment: model input dim %d != MFCC coeffs %d", modelCfg.InputDim, mfccCfg.NumCoeffs)
	}
	if modelCfg.NumClasses != 2 {
		return nil, fmt.Errorf("segment: detection is binary, got %d classes", modelCfg.NumClasses)
	}
	ext, err := mfcc.NewExtractor(mfccCfg)
	if err != nil {
		return nil, fmt.Errorf("segment: %w", err)
	}
	model, err := brnn.New(modelCfg)
	if err != nil {
		return nil, fmt.Errorf("segment: %w", err)
	}
	sel := make(map[string]bool, len(selected))
	for k, v := range selected {
		sel[k] = v
	}
	return newDetector(ext, model, sel), nil
}

// Selected reports whether a phoneme symbol is in the detector's effective
// set.
func (d *Detector) Selected(symbol string) bool { return d.selected[symbol] }

// Model returns the underlying BRNN (for serialization).
func (d *Detector) Model() *brnn.Model { return d.model }

// frameLabel returns the ground-truth label of the MFCC frame starting at
// the given sample: 1 if the frame center falls inside a selected phoneme
// segment, else 0.
func (d *Detector) frameLabel(alignment []phoneme.Segment, frameStart int) int {
	center := frameStart + d.ext.FrameLength()/2
	for _, seg := range alignment {
		if center >= seg.Start && center < seg.End {
			if d.selected[seg.Symbol] {
				return 1
			}
			return 0
		}
	}
	return 0
}

// BuildSequence converts a labeled utterance into a training sequence:
// MFCC features with per-frame ground-truth labels derived from the
// time-aligned transcription.
func (d *Detector) BuildSequence(utt *phoneme.Utterance) (brnn.Sequence, error) {
	feats, err := d.ext.Extract(utt.Samples)
	if err != nil {
		return brnn.Sequence{}, fmt.Errorf("segment: %w", err)
	}
	if len(feats) == 0 {
		return brnn.Sequence{}, fmt.Errorf("segment: utterance too short (%d samples)", len(utt.Samples))
	}
	labels := make([]int, len(feats))
	for t := range feats {
		labels[t] = d.frameLabel(utt.Alignment, t*d.ext.FrameShift())
	}
	return brnn.Sequence{Inputs: feats, Labels: labels}, nil
}

// Train fits the BRNN on labeled utterances, returning per-epoch losses.
func (d *Detector) Train(utts []*phoneme.Utterance, cfg brnn.TrainConfig) ([]float64, error) {
	if len(utts) == 0 {
		return nil, fmt.Errorf("segment: no training utterances")
	}
	data := make([]brnn.Sequence, 0, len(utts))
	for _, u := range utts {
		seq, err := d.BuildSequence(u)
		if err != nil {
			return nil, err
		}
		data = append(data, seq)
	}
	trainer, err := brnn.NewTrainer(d.model, cfg)
	if err != nil {
		return nil, fmt.Errorf("segment: %w", err)
	}
	losses, err := trainer.Train(data)
	if err != nil {
		return nil, fmt.Errorf("segment: %w", err)
	}
	return losses, nil
}

// FrameAccuracy evaluates frame-level detection accuracy on labeled
// utterances (the statistic of Section V-B: 94% without a barrier, 91%
// through a barrier).
func (d *Detector) FrameAccuracy(utts []*phoneme.Utterance) (float64, error) {
	data := make([]brnn.Sequence, 0, len(utts))
	for _, u := range utts {
		seq, err := d.BuildSequence(u)
		if err != nil {
			return 0, err
		}
		data = append(data, seq)
	}
	acc, err := brnn.Evaluate(d.model, data)
	if err != nil {
		return 0, fmt.Errorf("segment: %w", err)
	}
	return acc, nil
}

// DetectFrames classifies each MFCC frame of an audio recording as
// effective (true) or not, applying a short median smoothing to remove
// single-frame flicker. Inference runs on a pooled batched session, so
// concurrent callers share read-only weights and reuse scratch instead of
// allocating per call.
func (d *Detector) DetectFrames(audio []float64) ([]bool, error) {
	feats, err := d.ext.Extract(audio)
	if err != nil {
		return nil, fmt.Errorf("segment: %w", err)
	}
	if len(feats) == 0 {
		return nil, nil
	}
	s := d.scratch.Get().(*inferScratch)
	s.pred, err = s.inf.Predict(feats, s.pred)
	if err != nil {
		d.scratch.Put(s)
		return nil, fmt.Errorf("segment: %w", err)
	}
	out := make([]bool, len(s.pred))
	for t, p := range s.pred {
		out[t] = p == 1
	}
	d.scratch.Put(s)
	return medianSmooth(out, 2), nil
}

// DetectFramesBatch classifies the frames of several recordings in one
// batched inference pass: the model weights are traversed once per
// timestep for the whole batch instead of once per recording. The result
// for each recording is identical to DetectFrames on it (nil for
// recordings too short to frame).
func (d *Detector) DetectFramesBatch(audios [][]float64) ([][]bool, error) {
	feats := make([][][]float64, len(audios))
	for i, audio := range audios {
		f, err := d.ext.Extract(audio)
		if err != nil {
			return nil, fmt.Errorf("segment: recording %d: %w", i, err)
		}
		feats[i] = f
	}
	s := d.scratch.Get().(*inferScratch)
	probs, err := s.inf.ForwardBatch(feats)
	if err != nil {
		d.scratch.Put(s)
		return nil, fmt.Errorf("segment: %w", err)
	}
	out := make([][]bool, len(audios))
	for i, seq := range probs {
		if len(seq) == 0 {
			continue
		}
		frames := make([]bool, len(seq))
		for t, p := range seq {
			best := 0
			for k, v := range p {
				if v > p[best] {
					best = k
				}
			}
			frames[t] = best == 1
		}
		out[i] = medianSmooth(frames, 2)
	}
	d.scratch.Put(s)
	return out, nil
}

// medianSmooth applies a sliding majority vote of half-width radius.
func medianSmooth(x []bool, radius int) []bool {
	if radius <= 0 || len(x) == 0 {
		return x
	}
	out := make([]bool, len(x))
	for i := range x {
		count, total := 0, 0
		for j := i - radius; j <= i+radius; j++ {
			if j < 0 || j >= len(x) {
				continue
			}
			total++
			if x[j] {
				count++
			}
		}
		out[i] = count*2 > total
	}
	return out
}

// Spans merges consecutive detected frames into sample spans. Because
// frames overlap (shift < frame length), runs separated by a short
// inactive gap can still overlap or touch in sample terms — with the
// default 160/400 geometry, two runs one inactive frame apart overlap by
// 80 samples. Such spans are merged, so ExtractSpans never duplicates
// audio or double-fades a seam.
func (d *Detector) Spans(frames []bool) []Span {
	var spans []Span
	shift, frameLen := d.ext.FrameShift(), d.ext.FrameLength()
	start := -1
	for t := 0; t <= len(frames); t++ {
		active := t < len(frames) && frames[t]
		switch {
		case active && start < 0:
			start = t
		case !active && start >= 0:
			sp := Span{Start: start * shift, End: (t-1)*shift + frameLen}
			if n := len(spans); n > 0 && sp.Start <= spans[n-1].End {
				if sp.End > spans[n-1].End {
					spans[n-1].End = sp.End
				}
			} else {
				spans = append(spans, sp)
			}
			start = -1
		}
	}
	return spans
}

// ExtractSpans concatenates the given sample spans of a recording,
// clamping out-of-range bounds. Each piece gets a short raised-cosine fade
// so the splice points do not introduce clicks — broadband discontinuities
// at identical positions in both devices' extractions would otherwise
// masquerade as correlated signal. It is used on the wearable side with
// the spans computed from the VA recording.
// The output is sized once and each piece faded in place: one allocation,
// none when no span is left after clamping (which returns nil).
func ExtractSpans(audio []float64, spans []Span) []float64 {
	clamp := func(sp Span) (int, int) { return max(sp.Start, 0), min(sp.End, len(audio)) }
	total := 0
	for _, sp := range spans {
		if start, end := clamp(sp); end > start {
			total += end - start
		}
	}
	if total == 0 {
		return nil
	}
	out := make([]float64, 0, total)
	for _, sp := range spans {
		if start, end := clamp(sp); end > start {
			n := len(out)
			out = append(out, audio[start:end]...)
			dsp.FadeEdges(out[n:], min((end-start)/16, 160)) // at most 10 ms at 16 kHz
		}
	}
	return out
}

// detectorFile is the serialized form of a trained Detector.
type detectorFile struct {
	Selected []string
	Model    []byte
}

// Save serializes the trained detector (model weights plus the selected
// phoneme set) to a writer.
func (d *Detector) Save(w io.Writer) error {
	blob, err := d.model.MarshalBinary()
	if err != nil {
		return fmt.Errorf("segment: %w", err)
	}
	file := detectorFile{Model: blob}
	for sym := range d.selected {
		file.Selected = append(file.Selected, sym)
	}
	sort.Strings(file.Selected)
	if err := gob.NewEncoder(w).Encode(&file); err != nil {
		return fmt.Errorf("segment: encode: %w", err)
	}
	return nil
}

// Load restores a detector serialized by Save, re-validating the
// invariants NewDetector enforces: the deserialized model must match the
// MFCC coefficient count and be binary, so a stale or mismatched detector
// file fails here with a clear error instead of mislabeling frames or
// dying later with a confusing dim mismatch.
func Load(r io.Reader) (*Detector, error) {
	var file detectorFile
	if err := gob.NewDecoder(r).Decode(&file); err != nil {
		return nil, fmt.Errorf("segment: decode: %w", err)
	}
	if len(file.Selected) == 0 {
		return nil, fmt.Errorf("segment: serialized detector has no selected phonemes")
	}
	var model brnn.Model
	if err := model.UnmarshalBinary(file.Model); err != nil {
		return nil, fmt.Errorf("segment: %w", err)
	}
	mfccCfg := mfcc.DefaultConfig()
	if err := validateModel(&model, mfccCfg); err != nil {
		return nil, err
	}
	ext, err := mfcc.NewExtractor(mfccCfg)
	if err != nil {
		return nil, fmt.Errorf("segment: %w", err)
	}
	selected := make(map[string]bool, len(file.Selected))
	for _, sym := range file.Selected {
		selected[sym] = true
	}
	return newDetector(ext, &model, selected), nil
}

// OracleSpans returns the ground-truth effective-phoneme spans of an
// utterance, used to validate the learned detector and as a baseline.
func OracleSpans(utt *phoneme.Utterance, selected map[string]bool) []Span {
	var spans []Span
	for _, seg := range utt.Alignment {
		if selected[seg.Symbol] {
			spans = append(spans, Span{Start: seg.Start, End: seg.End})
		}
	}
	return spans
}
