package segment

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"vibguard/internal/brnn"
	"vibguard/internal/dsp"
	"vibguard/internal/phoneme"
	"vibguard/internal/selection"
)

// smallModelCfg keeps tests fast.
func smallModelCfg() brnn.Config {
	return brnn.Config{InputDim: 14, HiddenDim: 16, NumClasses: 2, Seed: 1}
}

func trainingUtterances(t *testing.T, numVoices, numCommands int) []*phoneme.Utterance {
	t.Helper()
	voices := phoneme.NewVoicePool(numVoices, 5)
	cmds := phoneme.Commands()
	if numCommands > len(cmds) {
		numCommands = len(cmds)
	}
	var utts []*phoneme.Utterance
	for _, v := range voices {
		synth, err := phoneme.NewSynthesizer(v)
		if err != nil {
			t.Fatal(err)
		}
		for _, cmd := range cmds[:numCommands] {
			u, err := synth.Synthesize(cmd)
			if err != nil {
				t.Fatal(err)
			}
			utts = append(utts, u)
		}
	}
	return utts
}

func TestNewDetectorValidation(t *testing.T) {
	sel := selection.CanonicalSelected()
	if _, err := NewDetector(nil, smallModelCfg()); err == nil {
		t.Error("empty selected set should error")
	}
	bad := smallModelCfg()
	bad.InputDim = 10
	if _, err := NewDetector(sel, bad); err == nil {
		t.Error("mismatched input dim should error")
	}
	bad = smallModelCfg()
	bad.NumClasses = 3
	if _, err := NewDetector(sel, bad); err == nil {
		t.Error("non-binary classes should error")
	}
	d, err := NewDetector(sel, smallModelCfg())
	if err != nil {
		t.Fatal(err)
	}
	if !d.Selected("er") || d.Selected("s") {
		t.Error("selected set membership wrong")
	}
}

func TestBuildSequenceLabels(t *testing.T) {
	sel := selection.CanonicalSelected()
	d, err := NewDetector(sel, smallModelCfg())
	if err != nil {
		t.Fatal(err)
	}
	synth, err := phoneme.NewSynthesizer(phoneme.NewVoicePool(1, 3)[0])
	if err != nil {
		t.Fatal(err)
	}
	// "stop the music": /s/ frames must be labeled 0, vowels 1.
	utt, err := synth.Synthesize(phoneme.Commands()[5])
	if err != nil {
		t.Fatal(err)
	}
	seq, err := d.BuildSequence(utt)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Inputs) != len(seq.Labels) {
		t.Fatal("inputs/labels length mismatch")
	}
	ones, zeros := 0, 0
	for _, l := range seq.Labels {
		switch l {
		case 1:
			ones++
		case 0:
			zeros++
		default:
			t.Fatalf("label %d out of range", l)
		}
	}
	if ones == 0 || zeros == 0 {
		t.Errorf("labels degenerate: %d ones, %d zeros", ones, zeros)
	}
	// Frames inside the /s/ segment must be 0.
	var sSeg phoneme.Segment
	for _, seg := range utt.Alignment {
		if seg.Symbol == "s" {
			sSeg = seg
			break
		}
	}
	if sSeg.End == 0 {
		t.Fatal("no /s/ segment found")
	}
	for tIdx := range seq.Labels {
		center := tIdx*160 + 200
		if center >= sSeg.Start && center < sSeg.End && seq.Labels[tIdx] != 0 {
			t.Errorf("frame %d inside /s/ labeled 1", tIdx)
		}
	}
}

func TestTrainAndDetect(t *testing.T) {
	sel := selection.CanonicalSelected()
	d, err := NewDetector(sel, smallModelCfg())
	if err != nil {
		t.Fatal(err)
	}
	train := trainingUtterances(t, 2, 6)
	losses, err := d.Train(train, brnn.TrainConfig{Epochs: 4, LearningRate: 0.01, ClipNorm: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if losses[len(losses)-1] >= losses[0] {
		t.Errorf("loss did not decrease: %v", losses)
	}
	acc, err := d.FrameAccuracy(train)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.82 {
		t.Errorf("training accuracy = %v, want >= 0.82", acc)
	}
	// Detection produces sensible spans on a held-out voice.
	heldOut := phoneme.NewVoicePool(4, 99)[3]
	synth, err := phoneme.NewSynthesizer(heldOut)
	if err != nil {
		t.Fatal(err)
	}
	utt, err := synth.Synthesize(phoneme.Commands()[0])
	if err != nil {
		t.Fatal(err)
	}
	extracted, spans, err := d.ExtractEffective(utt.Samples)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 || len(extracted) == 0 {
		t.Fatal("no effective audio detected")
	}
	// Extracted audio must be shorter than the utterance (something was
	// rejected) but a substantial fraction of it.
	if len(extracted) >= len(utt.Samples) {
		t.Error("extraction did not reject anything")
	}
	if len(extracted) < len(utt.Samples)/8 {
		t.Errorf("extraction too aggressive: %d of %d samples", len(extracted), len(utt.Samples))
	}
}

func TestTrainErrors(t *testing.T) {
	d, err := NewDetector(selection.CanonicalSelected(), smallModelCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Train(nil, brnn.DefaultTrainConfig()); err == nil {
		t.Error("empty training set should error")
	}
	short := &phoneme.Utterance{Samples: make([]float64, 10)}
	if _, err := d.Train([]*phoneme.Utterance{short}, brnn.DefaultTrainConfig()); err == nil {
		t.Error("too-short utterance should error")
	}
}

// An utterance with one NaN sample yields non-finite MFCC features;
// Train reports it instead of training every weight into NaN.
func TestTrainRejectsNonFiniteFeatures(t *testing.T) {
	d, err := NewDetector(selection.CanonicalSelected(), smallModelCfg())
	if err != nil {
		t.Fatal(err)
	}
	utts := trainingUtterances(t, 1, 2)
	utts[1].Samples[len(utts[1].Samples)/2] = math.NaN()
	_, err = d.Train(utts, brnn.TrainConfig{Epochs: 1, LearningRate: 0.01, ClipNorm: 5, Seed: 1})
	if err == nil || !strings.Contains(err.Error(), "finite") {
		t.Fatalf("Train on a NaN sample: error %v, want a non-finite feature error", err)
	}
}

func TestSpansMergesFrames(t *testing.T) {
	d, err := NewDetector(selection.CanonicalSelected(), smallModelCfg())
	if err != nil {
		t.Fatal(err)
	}
	frames := []bool{false, true, true, true, false, false, true, false}
	spans := d.Spans(frames)
	if len(spans) != 2 {
		t.Fatalf("spans = %v", spans)
	}
	// Frames 1-3: start 160, end 3*160+400 = 880.
	if spans[0].Start != 160 || spans[0].End != 880 {
		t.Errorf("span 0 = %+v", spans[0])
	}
	if spans[1].Start != 6*160 || spans[1].End != 6*160+400 {
		t.Errorf("span 1 = %+v", spans[1])
	}
	if spans[0].Len() != 720 {
		t.Errorf("span len = %d", spans[0].Len())
	}
	// All-false and empty inputs.
	if got := d.Spans([]bool{false, false}); got != nil {
		t.Errorf("all-false spans = %v", got)
	}
	if got := d.Spans(nil); got != nil {
		t.Errorf("nil spans = %v", got)
	}
}

// TestSpansMergeOverlap is the regression test for the overlapping-span
// bug: with the 160/400 frame geometry, runs separated by ONE inactive
// frame overlap by 80 samples and must merge into a single span, or
// ExtractSpans duplicates audio and double-fades the seam.
func TestSpansMergeOverlap(t *testing.T) {
	d, err := NewDetector(selection.CanonicalSelected(), smallModelCfg())
	if err != nil {
		t.Fatal(err)
	}
	// One-frame gap: run {0} ends at 400, run {2} starts at 320.
	spans := d.Spans([]bool{true, false, true})
	if len(spans) != 1 || spans[0] != (Span{Start: 0, End: 2*160 + 400}) {
		t.Fatalf("one-frame gap spans = %v, want one merged span (0,720)", spans)
	}
	// Alternating frames chain-merge into one span.
	spans = d.Spans([]bool{true, false, true, false, true})
	if len(spans) != 1 || spans[0] != (Span{Start: 0, End: 4*160 + 400}) {
		t.Fatalf("alternating spans = %v, want one merged span (0,1040)", spans)
	}
	// A two-frame gap leaves 80 samples between the spans: no merge.
	spans = d.Spans([]bool{true, false, false, true})
	if len(spans) != 2 {
		t.Fatalf("two-frame gap spans = %v, want 2", spans)
	}
	// Whatever the input, emitted spans must be sorted and disjoint so
	// extraction never duplicates samples.
	frames := []bool{true, true, false, true, false, false, true, true, false, true}
	spans = d.Spans(frames)
	for i := 1; i < len(spans); i++ {
		if spans[i].Start < spans[i-1].End {
			t.Fatalf("spans %v overlap at %d", spans, i)
		}
	}
}

// TestLoadRejectsMismatchedModel pins the Load-side re-validation of the
// NewDetector invariants: a structurally valid file whose model does not
// match the MFCC geometry (or is not binary, or is corrupt) must fail at
// load time.
func TestLoadRejectsMismatchedModel(t *testing.T) {
	encode := func(t *testing.T, file detectorFile) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&file); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	blobFor := func(t *testing.T, cfg brnn.Config) []byte {
		t.Helper()
		m, err := brnn.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := m.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	sel := []string{"aa", "er"}
	cases := []struct {
		name string
		file detectorFile
	}{
		{"input dim mismatch", detectorFile{
			Selected: sel,
			Model:    blobFor(t, brnn.Config{InputDim: 10, HiddenDim: 4, NumClasses: 2, Seed: 1}),
		}},
		{"non-binary classes", detectorFile{
			Selected: sel,
			Model:    blobFor(t, brnn.Config{InputDim: 14, HiddenDim: 4, NumClasses: 3, Seed: 1}),
		}},
		{"corrupt model blob", detectorFile{
			Selected: sel,
			Model:    blobFor(t, smallModelCfg())[:40],
		}},
		{"no selected phonemes", detectorFile{
			Model: blobFor(t, smallModelCfg()),
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Load(bytes.NewReader(encode(t, c.file))); err == nil {
				t.Fatalf("%s should fail to load", c.name)
			}
		})
	}
	// Sanity: the same encoding with a conforming model loads fine.
	good := detectorFile{Selected: sel, Model: blobFor(t, smallModelCfg())}
	if _, err := Load(bytes.NewReader(encode(t, good))); err != nil {
		t.Fatalf("conforming file failed to load: %v", err)
	}
}

// TestDetectFramesBatchMatchesSingle pins the batch entry point against
// per-recording DetectFrames, including a too-short recording in the
// middle of the batch.
func TestDetectFramesBatchMatchesSingle(t *testing.T) {
	d, err := NewDetector(selection.CanonicalSelected(), smallModelCfg())
	if err != nil {
		t.Fatal(err)
	}
	utts := trainingUtterances(t, 2, 2)
	audios := [][]float64{
		utts[0].Samples,
		make([]float64, 10), // too short to frame
		utts[1].Samples,
		utts[2].Samples[:4000],
	}
	got, err := d.DetectFramesBatch(audios)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(audios) {
		t.Fatalf("batch returned %d results, want %d", len(got), len(audios))
	}
	for i, audio := range audios {
		want, err := d.DetectFrames(audio)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != len(got[i]) {
			t.Fatalf("recording %d: %d frames, want %d", i, len(got[i]), len(want))
		}
		for f := range want {
			if want[f] != got[i][f] {
				t.Fatalf("recording %d frame %d differs from DetectFrames", i, f)
			}
		}
	}
}

// TestDetectFramesConcurrent hammers one shared detector from several
// goroutines (the serve-worker pattern backed by the session pool); run
// under -race by the CI brnn job.
func TestDetectFramesConcurrent(t *testing.T) {
	d, err := NewDetector(selection.CanonicalSelected(), smallModelCfg())
	if err != nil {
		t.Fatal(err)
	}
	audio := trainingUtterances(t, 1, 1)[0].Samples
	want, err := d.DetectFrames(audio)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				got, err := d.DetectFrames(audio)
				if err != nil {
					errs <- err
					return
				}
				for f := range want {
					if want[f] != got[f] {
						errs <- fmt.Errorf("concurrent detection diverged at frame %d", f)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestMedianSmooth(t *testing.T) {
	in := []bool{true, false, true, true, true, false, false}
	out := medianSmooth(in, 1)
	// The isolated false at index 1 flips to true.
	if !out[1] {
		t.Error("isolated flicker not smoothed")
	}
	if out[6] {
		t.Error("trailing false should stay false")
	}
	if got := medianSmooth(nil, 1); len(got) != 0 {
		t.Error("empty input")
	}
	same := medianSmooth(in, 0)
	for i := range in {
		if same[i] != in[i] {
			t.Error("radius 0 should be identity")
		}
	}
}

func TestExtractSpansClamping(t *testing.T) {
	audio := make([]float64, 100)
	for i := range audio {
		audio[i] = float64(i)
	}
	out := ExtractSpans(audio, []Span{{Start: -10, End: 5}, {Start: 95, End: 300}, {Start: 50, End: 40}})
	if len(out) != 10 {
		t.Errorf("extracted %d samples, want 10", len(out))
	}
	if out[0] != 0 || out[5] != 95 {
		t.Errorf("extracted values wrong: %v", out)
	}
}

func TestOracleSpans(t *testing.T) {
	synth, err := phoneme.NewSynthesizer(phoneme.NewVoicePool(1, 3)[0])
	if err != nil {
		t.Fatal(err)
	}
	// "stop the music" contains /s/ (excluded) and vowels (selected).
	utt, err := synth.Synthesize(phoneme.Commands()[5])
	if err != nil {
		t.Fatal(err)
	}
	sel := selection.CanonicalSelected()
	spans := OracleSpans(utt, sel)
	if len(spans) == 0 {
		t.Fatal("no oracle spans")
	}
	// Count of spans = count of selected phonemes in the alignment.
	want := 0
	for _, seg := range utt.Alignment {
		if sel[seg.Symbol] {
			want++
		}
	}
	if len(spans) != want {
		t.Errorf("spans = %d, want %d", len(spans), want)
	}
	// No span may cover the /s/ segment.
	for _, seg := range utt.Alignment {
		if seg.Symbol != "s" {
			continue
		}
		for _, sp := range spans {
			if sp.Start < seg.End && sp.End > seg.Start {
				t.Error("oracle span overlaps excluded /s/")
			}
		}
	}
}

func TestDetectFramesEmptyAudio(t *testing.T) {
	d, err := NewDetector(selection.CanonicalSelected(), smallModelCfg())
	if err != nil {
		t.Fatal(err)
	}
	frames, err := d.DetectFrames(make([]float64, 10))
	if err != nil {
		t.Fatal(err)
	}
	if frames != nil {
		t.Errorf("short audio produced %d frames", len(frames))
	}
}

func TestDetectorSaveLoadRoundTrip(t *testing.T) {
	sel := selection.CanonicalSelected()
	d, err := NewDetector(sel, smallModelCfg())
	if err != nil {
		t.Fatal(err)
	}
	train := trainingUtterances(t, 1, 3)
	if _, err := d.Train(train, brnn.TrainConfig{Epochs: 2, LearningRate: 0.01, ClipNorm: 5, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !restored.Selected("er") || restored.Selected("s") {
		t.Error("restored selected set wrong")
	}
	// Identical predictions on the same audio.
	audio := train[0].Samples
	want, err := d.DetectFrames(audio)
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.DetectFrames(audio)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatal("frame count differs")
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("prediction differs at frame %d", i)
		}
	}
	if _, err := Load(bytes.NewReader([]byte("junk"))); err == nil {
		t.Error("garbage should error")
	}
}

// extractSpansOracle is ExtractSpans as it was before it sized its output
// once: a fresh piece per span, faded, then appended.
func extractSpansOracle(audio []float64, spans []Span) []float64 {
	var out []float64
	for _, sp := range spans {
		start, end := sp.Start, sp.End
		if start < 0 {
			start = 0
		}
		if end > len(audio) {
			end = len(audio)
		}
		if end <= start {
			continue
		}
		piece := make([]float64, end-start)
		copy(piece, audio[start:end])
		fade := len(piece) / 16
		if fade > 160 {
			fade = 160 // 10 ms at 16 kHz
		}
		out = append(out, dsp.FadeEdges(piece, fade)...)
	}
	return out
}

// ExtractSpans must give the oracle's bits, and its nil for an empty
// result, on spans clipped at both ends, empty, inverted, overlapping,
// short (fades under 160 samples, down to none) and long.
func TestExtractSpansBitIdenticalToOracle(t *testing.T) {
	audio := make([]float64, 9000)
	for i := range audio {
		audio[i] = math.Sin(float64(i)*0.37) + 0.25*math.Cos(float64(i)*2.9)
	}
	cases := map[string][]Span{
		"none":        nil,
		"clipped":     {{Start: -300, End: 2000}, {Start: 7000, End: 12000}},
		"all outside": {{Start: -50, End: -10}, {Start: 9000, End: 9500}},
		"empty":       {{Start: 400, End: 400}, {Start: 100, End: 900}},
		"inverted":    {{Start: 900, End: 100}, {Start: 3000, End: 3100}},
		"overlapping": {{Start: 1000, End: 4000}, {Start: 3000, End: 6000}, {Start: 3500, End: 3600}},
		"short":       {{Start: 10, End: 11}, {Start: 20, End: 35}, {Start: 100, End: 116}, {Start: 200, End: 1000}, {Start: 3000, End: 5559}},
		"long":        {{Start: 0, End: 9000}},
	}
	for name, spans := range cases {
		got, want := ExtractSpans(audio, spans), extractSpansOracle(audio, spans)
		if (got == nil) != (want == nil) || len(got) != len(want) {
			t.Fatalf("%s: %d samples (nil %v), oracle %d (nil %v)", name, len(got), got == nil, len(want), want == nil)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: sample %d = %v, oracle %v", name, i, got[i], want[i])
			}
		}
	}
}

// ExtractSpans allocates its output once, whatever the number of spans.
func TestExtractSpansOneAllocation(t *testing.T) {
	audio := make([]float64, 48000)
	var spans []Span
	for s := 0; s+700 <= len(audio); s += 1000 {
		spans = append(spans, Span{Start: s, End: s + 700})
	}
	if allocs := testing.AllocsPerRun(20, func() { ExtractSpans(audio, spans) }); allocs != 1 {
		t.Fatalf("ExtractSpans of %d spans made %v allocations, want 1", len(spans), allocs)
	}
}
