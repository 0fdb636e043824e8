package core

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"vibguard/internal/detector"
	"vibguard/internal/dsp"
	"vibguard/internal/obs"
	"vibguard/internal/segment"
	"vibguard/internal/syncnet"
)

// Streaming inspection: chunked ingest with VAD gating and an early-exit
// verdict once a confidence interval on the running correlation score
// clears the threshold on the safe side (DESIGN.md section 14). The batch
// Inspect on the buffered recordings remains the fallback whenever the
// interval never separates, and because every provisional evaluation runs
// on its own derived rng, that fallback is bit-identical to handing the
// concatenated audio to Inspect directly.

// Streaming-pipeline instrumentation: the early-exit/full-run split, the
// frames the VAD gate rejected, and the end-to-end time from first chunk
// to verdict.
var (
	metEarlyExit      = obs.Default().Counter("pipeline.early_exit")
	metFullRun        = obs.Default().Counter("pipeline.full_run")
	metVADGatedFrames = obs.Default().Counter("vad.gated_frames")
	metStreamEvals    = obs.Default().Counter("pipeline.stream.evals")
	metStreamEvalSkip = obs.Default().Counter("pipeline.stream.eval_errors")
	histTimeToVerdict = obs.Default().Histogram("pipeline.time_to_verdict_seconds")
)

// StreamConfig parameterizes a StreamInspector.
type StreamConfig struct {
	// DisableEarlyExit turns provisional evaluation off: the inspector
	// only buffers, and the verdict always comes from the batch fallback
	// (used by the equivalence tests and as the non-MethodFull behavior).
	DisableEarlyExit bool
}

// The early exit's schedule and confidence bound.
const (
	// streamMinSeconds is the minimum VA audio before the first
	// provisional evaluation.
	streamMinSeconds = 0.6
	// streamEvalEverySeconds is the minimum new VA audio between
	// provisional evaluations: 100 ms, the servers' chunk duration, so
	// evaluation opportunities line up with chunk arrival instead of
	// beating against it onto a coarser grid.
	streamEvalEverySeconds = 0.1
	// streamGuardSeconds is how far a phoneme span must end before the
	// stream frontier to count as completed: the segmenter's BRNN is
	// bidirectional, so labels near the frontier can still change as more
	// audio arrives.
	streamGuardSeconds = 0.25
	// streamZ is the half-width multiplier of the Fisher-z
	// normal-approximation confidence interval on the provisional score,
	// deliberately far past an i.i.d. 99.99% interval, because
	// neighboring spectrogram cells are correlated.
	streamZ = 4.0
	// streamMinCells is the minimum number of (frame, bin) correlation
	// cells before the interval is trusted.
	streamMinCells = 128
)

// StreamInspector consumes one session's VA recording chunk by chunk and
// tries to reach a verdict before the recording ends. The wearable
// recording is fed separately (all at once or in chunks); provisional
// evaluations only consider the prefix both devices have covered.
//
// Determinism contract: the fallback rng (derived from the seed exactly
// like a batch session's) is never consumed by provisional work — each
// evaluation forks its own SplitMix64-derived rng — so when no early exit
// fires, Finish returns math.Float64bits-identical results to
// Defense.Inspect on the concatenated audio with a fresh rng from the same
// seed.
//
// Not safe for concurrent use; one inspector serves one session.
type StreamInspector struct {
	d         *Defense
	earlyExit bool
	seed      int64
	rng       *rand.Rand // fallback rng, untouched until the batch fallback

	vad     *dsp.VAD
	aligner *syncnet.StreamAligner

	va, wear []float64

	voicedPending bool // voiced frames arrived since the last evaluation
	nextEval      int  // VA length that permits the next evaluation
	evals         uint64
	verdict       *Verdict
	finished      bool
	started       time.Time
}

// NewStreamInspector builds a streaming session around the defense. The
// seed drives the session's stochastic sensing exactly like a batch
// session: the fallback path consumes rand.New(rand.NewSource(seed))
// untouched. Early exit requires MethodFull with a segmenter; other
// methods stream in buffer-only mode (the verdict always comes from the
// batch fallback).
func (d *Defense) NewStreamInspector(cfg StreamConfig, seed int64) (*StreamInspector, error) {
	vad, err := dsp.NewVAD(d.cfg.SampleRate)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &StreamInspector{
		d:         d,
		earlyExit: !cfg.DisableEarlyExit && d.cfg.Method == detector.MethodFull && d.cfg.Segmenter != nil,
		seed:      seed,
		rng:       rand.New(rand.NewSource(seed)),
		vad:       vad,
		aligner:   syncnet.NewStreamAligner(d.cfg.MaxSyncLagSeconds, d.cfg.SampleRate),
		nextEval:  int(streamMinSeconds * d.cfg.SampleRate),
		started:   time.Now(),
	}, nil
}

// FeedWearable appends wearable audio to the session. The wearable side
// carries no evaluation trigger — provisional evaluations fire on VA
// chunks and use however much wearable audio has arrived.
func (si *StreamInspector) FeedWearable(chunk []float64) error {
	if si.finished {
		return fmt.Errorf("core: stream feed after finish")
	}
	si.wear = append(si.wear, chunk...)
	return nil
}

// Feed appends one VA chunk, runs the VAD gate, and — once enough voiced
// audio has accumulated — a provisional evaluation. It returns a non-nil
// verdict as soon as an early exit fires; after that, further chunks are
// ignored (the session already has its answer). A nil, nil return means
// "keep streaming".
func (si *StreamInspector) Feed(chunk []float64) (*Verdict, error) {
	if si.finished {
		return nil, fmt.Errorf("core: stream feed after finish")
	}
	if si.verdict != nil {
		return si.verdict, nil
	}
	si.va = append(si.va, chunk...)
	voiced, gated := si.vad.Feed(chunk)
	if gated > 0 {
		metVADGatedFrames.Add(uint64(gated))
	}
	if voiced > 0 {
		si.voicedPending = true
	}
	// The gate: segmentation, replay, and correlation only spin up when
	// voiced audio has arrived since the last look, and at most once per
	// streamEvalEverySeconds of new audio.
	if si.earlyExit && si.voicedPending && len(si.va) >= si.nextEval {
		si.evaluate()
	}
	return si.verdict, nil
}

// evaluate runs one provisional scoring pass over the completed phoneme
// spans of the prefix both devices cover, and records an early verdict if
// the confidence interval clears the threshold on either side. Evaluation
// errors on a prefix are never fatal: the batch fallback owns error
// semantics for the complete recordings.
func (si *StreamInspector) evaluate() {
	si.voicedPending = false
	si.nextEval = len(si.va) + int(streamEvalEverySeconds*si.d.cfg.SampleRate)
	tau, stable := si.aligner.Estimate(si.va, si.wear)
	if !stable {
		return
	}
	// The usable prefix is bounded by both devices' coverage (the wearable
	// view starts tau samples in).
	frontier := len(si.va)
	if wearCover := len(si.wear) - tau; wearCover < frontier {
		frontier = wearCover
	}
	guard := int(streamGuardSeconds * si.d.cfg.SampleRate)
	if frontier-guard <= 0 {
		return
	}
	metStreamEvals.Inc()
	si.evals++
	spans, err := si.d.cfg.Segmenter.EffectiveSpans(si.va[:frontier])
	if err != nil {
		metStreamEvalSkip.Inc()
		return
	}
	// Keep only the span audio that lies well before the frontier: the
	// bidirectional segmenter can still relabel frames near it. A span
	// that continues past the guard boundary is clipped rather than
	// dropped — its frames before the boundary are as stable as a
	// completed span's (continuous speech often segments into one long
	// span, which would otherwise never complete and starve the early
	// exit).
	cut := frontier - guard
	completed := spans[:0:0]
	for _, sp := range spans {
		switch {
		case sp.End <= cut:
			completed = append(completed, sp)
		case sp.Start < cut:
			completed = append(completed, segment.Span{Start: sp.Start, End: cut})
		}
	}
	if len(completed) == 0 {
		return
	}
	vaSeg := segment.ExtractSpans(si.va, completed)
	wearSeg := segment.ExtractSpans(si.wear[tau:], completed)
	// Fork an rng per evaluation so the provisional sensing never touches
	// the fallback rng's stream.
	provRng := rand.New(rand.NewSource(provisionalSeed(si.seed, si.evals)))
	score, cells, err := si.d.det.CorrelateSegments(vaSeg, wearSeg, provRng)
	if err != nil {
		metStreamEvalSkip.Inc()
		return
	}
	if cells < streamMinCells || cells <= 3 {
		return
	}
	lo, hi := fisherInterval(score, cells, streamZ)
	thr := si.d.cfg.Threshold
	var attack bool
	switch {
	case lo > thr:
		attack = false
	case hi < thr:
		attack = true
	default:
		return // interval straddles the threshold; keep streaming
	}
	metEarlyExit.Inc()
	if attack {
		metVerdictAttack.Inc()
	} else {
		metVerdictAccept.Inc()
	}
	histTimeToVerdict.Observe(time.Since(si.started).Seconds())
	si.verdict = &Verdict{
		Score:      score,
		Attack:     attack,
		SyncOffset: tau,
		Spans:      completed,
		Early:      true,
		Consumed:   len(si.va),
	}
}

// Finish ends the stream. If an early exit already fired, its verdict is
// returned; otherwise the batch fallback runs: Defense.Inspect on the
// complete buffered recordings with the untouched session rng, so the
// result is bit-identical to never having streamed at all.
func (si *StreamInspector) Finish() (*Verdict, error) {
	if si.verdict != nil {
		si.finished = true
		return si.verdict, nil
	}
	if si.finished {
		return nil, fmt.Errorf("core: stream finished twice without a verdict")
	}
	si.finished = true
	if _, gated := si.vad.Finish(); gated > 0 {
		metVADGatedFrames.Add(uint64(gated))
	}
	metFullRun.Inc()
	v, err := si.d.Inspect(si.va, si.wear, si.rng)
	histTimeToVerdict.Observe(time.Since(si.started).Seconds())
	if err != nil {
		return nil, err
	}
	v.Consumed = len(si.va)
	return v, nil
}

// fisherInterval returns the Fisher z-transform confidence interval of a
// Pearson correlation r observed over n cells: z = atanh(r) is treated as
// normal with standard error 1/sqrt(n-3), and the interval is mapped back
// through tanh. r is clamped just inside (-1, 1) so atanh stays finite. A
// non-finite r (NaN from a constant cell window, ±Inf from an upstream
// overflow) carries no information, so it yields the maximal interval
// (-1, 1): the interval straddles any threshold, which the early-exit
// switch reads as "no exit this evaluation" rather than a spurious
// verdict — NaN would otherwise sail through the clamp below, because
// both comparisons are false for NaN.
func fisherInterval(r float64, n int, zMult float64) (lo, hi float64) {
	if math.IsNaN(r) || math.IsInf(r, 0) {
		return -1, 1
	}
	const rCap = 1 - 1e-12
	if r > rCap {
		r = rCap
	}
	if r < -rCap {
		r = -rCap
	}
	z := math.Atanh(r)
	se := 1 / math.Sqrt(float64(n-3))
	return math.Tanh(z - zMult*se), math.Tanh(z + zMult*se)
}

// provisionalSeed derives evaluation k's rng seed from the session seed
// with the SplitMix64 finalizer (the serve.SessionSeed / eval.SampleSeed
// scheme), so provisional sensing streams are decorrelated from each other
// and from the session's fallback rng.
func provisionalSeed(seed int64, k uint64) int64 {
	z := uint64(seed) ^ 0xa5a5a5a55a5a5a5a + 0x9e3779b97f4a7c15*(k+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}
