package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"vibguard/internal/acoustics"
	"vibguard/internal/detector"
	"vibguard/internal/device"
	"vibguard/internal/phoneme"
	"vibguard/internal/segment"
	"vibguard/internal/selection"
	"vibguard/internal/syncnet"
)

func TestNewDefenseValidation(t *testing.T) {
	w := device.NewFossilGen5()
	seg := &detector.StaticSegmenter{}
	bad := DefaultConfig(w, seg)
	bad.SampleRate = 0
	if _, err := NewDefense(bad); err == nil {
		t.Error("zero sample rate should error")
	}
	bad = DefaultConfig(w, seg)
	bad.MaxSyncLagSeconds = -1
	if _, err := NewDefense(bad); err == nil {
		t.Error("negative sync lag should error")
	}
	bad = DefaultConfig(nil, seg)
	if _, err := NewDefense(bad); err == nil {
		t.Error("nil wearable should error")
	}
	good := DefaultConfig(w, seg)
	d, err := NewDefense(good)
	if err != nil {
		t.Fatal(err)
	}
	if d.Threshold() != DefaultThreshold {
		t.Error("threshold mismatch")
	}
	if d.Method() != detector.MethodFull {
		t.Error("method mismatch")
	}
}

// buildScenario creates a legit and an attack recording pair with a
// simulated network delay on the wearable side.
func buildScenario(t *testing.T, seed int64) (spans []segment.Span, legitVA, legitWear, atkVA, atkWear []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	synth, err := phoneme.NewSynthesizer(phoneme.NewStudioVoicePool(1, seed)[0])
	if err != nil {
		t.Fatal(err)
	}
	utt, err := synth.Synthesize(phoneme.Commands()[1])
	if err != nil {
		t.Fatal(err)
	}
	spans = segment.OracleSpans(utt, selection.CanonicalSelected())
	room, err := acoustics.RoomByName("A")
	if err != nil {
		t.Fatal(err)
	}
	transmit := func(spl, dist float64, barrier bool) []float64 {
		p, err := room.Transmit(utt.Samples, acoustics.PathConfig{
			SourceSPL: spl, DistanceM: dist, ThroughBarrier: barrier, SampleRate: 16000,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	legitVA = transmit(72, 1.5, false)
	legitWear = syncnet.SimulateNetworkDelay(transmit(72, 0.3, false), 0.1, 16000, rng)
	atkVA = transmit(80, 2.1, true)
	atkWear = syncnet.SimulateNetworkDelay(transmit(80, 2.4, true), 0.08, 16000, rng)
	return spans, legitVA, legitWear, atkVA, atkWear
}

// countingSegmenter counts EffectiveSpans calls, verifying the hot path
// runs segmentation (one BRNN inference in production) exactly once.
type countingSegmenter struct {
	calls int
	spans []segment.Span
}

func (c *countingSegmenter) EffectiveSpans([]float64) ([]segment.Span, error) {
	c.calls++
	return c.spans, nil
}

func TestInspectSegmentsExactlyOnce(t *testing.T) {
	spans, legitVA, legitWear, _, _ := buildScenario(t, 15)
	seg := &countingSegmenter{spans: spans}
	d, err := NewDefense(DefaultConfig(device.NewFossilGen5(), seg))
	if err != nil {
		t.Fatal(err)
	}
	v, err := d.Inspect(legitVA, legitWear, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if seg.calls != 1 {
		t.Errorf("Inspect ran the segmenter %d times, want exactly 1", seg.calls)
	}
	if len(v.Spans) != len(spans) {
		t.Errorf("verdict spans = %d, want the segmenter's %d", len(v.Spans), len(spans))
	}
	seg.calls = 0
	if _, err := d.Score(legitVA, legitWear, rand.New(rand.NewSource(2))); err != nil {
		t.Fatal(err)
	}
	if seg.calls != 1 {
		t.Errorf("Score ran the segmenter %d times, want exactly 1", seg.calls)
	}
}

// TestThresholdAgreesWithDetector pins the bugfix for the 0.45-vs-0.5
// default-threshold drift: both config paths must resolve to the same
// constant.
func TestThresholdAgreesWithDetector(t *testing.T) {
	w := device.NewFossilGen5()
	seg := &detector.StaticSegmenter{}
	coreCfg := DefaultConfig(w, seg)
	detCfg := detector.DefaultConfig(w)
	if coreCfg.Threshold != detCfg.Threshold {
		t.Errorf("core default threshold %v != detector default threshold %v",
			coreCfg.Threshold, detCfg.Threshold)
	}
	if DefaultThreshold != detector.DefaultThreshold {
		t.Errorf("core.DefaultThreshold %v != detector.DefaultThreshold %v",
			DefaultThreshold, detector.DefaultThreshold)
	}
	if coreCfg.SampleRate != detCfg.SampleRate {
		t.Errorf("core default sample rate %v != detector default %v",
			coreCfg.SampleRate, detCfg.SampleRate)
	}
}

func TestInspectEndToEnd(t *testing.T) {
	spans, legitVA, legitWear, atkVA, atkWear := buildScenario(t, 5)
	w := device.NewFossilGen5()
	d, err := NewDefense(DefaultConfig(w, &detector.StaticSegmenter{Spans: spans}))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	legit, err := d.Inspect(legitVA, legitWear, rng)
	if err != nil {
		t.Fatal(err)
	}
	if legit.Attack {
		t.Errorf("legitimate command flagged as attack (score %v)", legit.Score)
	}
	// The 100ms network delay (1600 samples) must be recovered.
	if legit.SyncOffset < 1500 || legit.SyncOffset > 1700 {
		t.Errorf("sync offset = %d, want ~1600", legit.SyncOffset)
	}
	if len(legit.Spans) == 0 {
		t.Error("verdict missing spans")
	}
	atk, err := d.Inspect(atkVA, atkWear, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !atk.Attack {
		t.Errorf("thru-barrier attack not flagged (score %v)", atk.Score)
	}
	if legit.Score <= atk.Score {
		t.Errorf("legit score %v not above attack score %v", legit.Score, atk.Score)
	}
}

func TestScoreMatchesInspect(t *testing.T) {
	spans, legitVA, legitWear, _, _ := buildScenario(t, 7)
	w := device.NewFossilGen5()
	d, err := NewDefense(DefaultConfig(w, &detector.StaticSegmenter{Spans: spans}))
	if err != nil {
		t.Fatal(err)
	}
	s1, err := d.Score(legitVA, legitWear, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	v, err := d.Inspect(legitVA, legitWear, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if s1 != v.Score {
		t.Errorf("Score %v != Inspect score %v for identical rng", s1, v.Score)
	}
}

// TestScoreWithSpansMatchesScore proves the per-call span path computes
// the same score as the segmenter path when given the segmenter's spans.
func TestScoreWithSpansMatchesScore(t *testing.T) {
	spans, legitVA, legitWear, _, _ := buildScenario(t, 21)
	d, err := NewDefense(DefaultConfig(device.NewFossilGen5(), &detector.StaticSegmenter{Spans: spans}))
	if err != nil {
		t.Fatal(err)
	}
	viaSegmenter, err := d.Score(legitVA, legitWear, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	viaSpans, err := d.ScoreWithSpans(legitVA, legitWear, spans, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(viaSegmenter) != math.Float64bits(viaSpans) {
		t.Errorf("Score %v != ScoreWithSpans %v for identical spans and rng", viaSegmenter, viaSpans)
	}
}

// TestScoreRequiresSegmenter: a nil-segmenter MethodFull defense is valid
// (the parallel engine supplies spans per call) but its Score entry point
// must fail loudly rather than segment nothing. When the segmenter and
// the alignment both fail, Score reports the segmenter's error.
func TestScoreRequiresSegmenter(t *testing.T) {
	d, err := NewDefense(DefaultConfig(device.NewFossilGen5(), nil))
	if err != nil {
		t.Fatalf("nil segmenter should be constructible: %v", err)
	}
	silence := make([]float64, 16000)
	if _, err := d.Score(silence, silence, rand.New(rand.NewSource(1))); err == nil {
		t.Error("Score without a segmenter should error")
	}
	if _, err := d.ScoreWithSpans(silence, silence, nil, rand.New(rand.NewSource(1))); err != nil {
		t.Errorf("ScoreWithSpans should work without a segmenter: %v", err)
	}

	alignErr := errors.New("alignment down")
	d, err = NewDefense(DefaultConfig(device.NewFossilGen5(), failingSegmenter{}))
	if err != nil {
		t.Fatal(err)
	}
	d.align = failAlignments(func([]float64) error { return alignErr })
	if _, err := d.Score(silence, silence, rand.New(rand.NewSource(1))); !errors.Is(err, errSegmenterDown) {
		t.Errorf("Score err %v, want the segmenter's %v", err, errSegmenterDown)
	}
}

func TestInspectEmptyRecordings(t *testing.T) {
	w := device.NewFossilGen5()
	d, err := NewDefense(DefaultConfig(w, &detector.StaticSegmenter{}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Inspect(nil, nil, rand.New(rand.NewSource(1))); err == nil {
		t.Error("empty recordings should error")
	}
}

func TestDefenseWithBaselineMethods(t *testing.T) {
	spans, legitVA, legitWear, atkVA, atkWear := buildScenario(t, 9)
	w := device.NewFossilGen5()
	for _, m := range []detector.Method{detector.MethodAudio, detector.MethodVibration} {
		cfg := DefaultConfig(w, &detector.StaticSegmenter{Spans: spans})
		cfg.Method = m
		d, err := NewDefense(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(13))
		legit, err := d.Score(legitVA, legitWear, rng)
		if err != nil {
			t.Fatal(err)
		}
		atk, err := d.Score(atkVA, atkWear, rng)
		if err != nil {
			t.Fatal(err)
		}
		if legit <= atk {
			t.Errorf("%v: legit %v not above attack %v", m, legit, atk)
		}
	}
}
