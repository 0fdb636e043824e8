package eval

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"vibguard/internal/core"
	"vibguard/internal/detector"
	"vibguard/internal/device"
	"vibguard/internal/obs"
	"vibguard/internal/sensing"
)

// ParallelScorer instrumentation. The sample timer and queue-wait
// histogram record per sample (lock-free, allocation-free, shared across
// all workers); worker_samples records each worker's share of one
// ScoreAll batch, so its spread is the per-worker throughput balance.
var (
	metScorerSamples   = obs.Default().Counter("eval.scorer.samples")
	metScorerBatches   = obs.Default().Counter("eval.scorer.batches")
	gaugeScorerWorkers = obs.Default().Gauge("eval.scorer.workers")
	stageScorerSample  = obs.Default().StageTimer("eval.scorer.sample")
	histQueueWait      = obs.Default().Histogram("eval.scorer.queue_wait_seconds")
	histWorkerSamples  = obs.Default().Histogram("eval.scorer.worker_samples")
)

// defaultWorkers overrides the GOMAXPROCS-sized worker pool when positive.
// It exists for command-line tools (cmd/benchgen -workers) that want one
// knob for every evaluation they trigger; library callers should prefer
// the Workers option.
var defaultWorkers atomic.Int64

// SetDefaultWorkers sets the package-wide default worker count used by
// ParallelScorer when no Workers option is given. n <= 0 restores the
// GOMAXPROCS default. It only affects scorers built after the call.
func SetDefaultWorkers(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int64(n))
}

// ParallelOption configures a ParallelScorer.
type ParallelOption func(*ParallelScorer)

// Workers fixes the worker-pool size (<= 0 keeps the default:
// SetDefaultWorkers if set, else runtime.GOMAXPROCS(0)). The scores never
// depend on the worker count — only throughput does.
func Workers(n int) ParallelOption {
	return func(ps *ParallelScorer) {
		if n > 0 {
			ps.workers = n
		}
	}
}

// WithSensing modifies the vibration-domain sensing configuration of every
// worker's Defense (nil means defaults). Used by the ablation benchmarks.
func WithSensing(mutate func(*sensing.Config)) ParallelOption {
	return func(ps *ParallelScorer) { ps.spec.mutate = mutate }
}

// WithoutSync disables the Eq. (5) synchronization (zero maximum lag), so
// the wearable's network-delay offset is left in place.
func WithoutSync() ParallelOption {
	return func(ps *ParallelScorer) { ps.spec.noSync = true }
}

// ParallelScorer is the concurrent batch-scoring engine: it shards a
// sample slice across a pool of workers that share one core.Defense
// (built once, around its own copy of the wearable device model; a
// Defense is safe for concurrent use with one rng per call), and scores
// every sample with a deterministic RNG derived from
// (seed, sample index) via SampleSeed. Because nothing about a sample's
// score depends on worker identity, scheduling order, or pool size, the
// output vector is bit-identical for any worker count; Workers(1) scores
// the samples in index order and is the sequential reference.
//
// A ParallelScorer holds no mutable state; concurrent ScoreAll calls (even
// on overlapping sample slices) are safe.
type ParallelScorer struct {
	spec    scorerSpec
	defense *core.Defense
	workers int
}

// NewParallelScorer builds a concurrent scorer for one method. The
// provider is required for MethodFull and ignored otherwise; it must be
// safe for concurrent SpansFor calls (both OracleProvider and
// BRNNProvider are: the oracle reads only immutable alignments, and the
// BRNN detector pools its mutable inference scratch per caller while the
// model weights stay read-only).
func NewParallelScorer(method detector.Method, w *device.Wearable, provider SpanProvider, seed int64, opts ...ParallelOption) (*ParallelScorer, error) {
	ps := &ParallelScorer{
		spec: scorerSpec{method: method, wearable: w, provider: provider, seed: seed},
	}
	for _, opt := range opts {
		opt(ps)
	}
	if ps.workers <= 0 {
		if n := int(defaultWorkers.Load()); n > 0 {
			ps.workers = n
		} else {
			ps.workers = runtime.GOMAXPROCS(0)
		}
	}
	if err := ps.spec.validate(); err != nil {
		return nil, err
	}
	defense, err := ps.spec.newDefense()
	if err != nil {
		return nil, err
	}
	ps.defense = defense
	return ps, nil
}

// Workers returns the configured worker-pool size.
func (ps *ParallelScorer) Workers() int { return ps.workers }

// ScoreAll scores a slice of samples across the worker pool and returns
// one score per sample, in input order. Each score depends on (seed,
// index), never on the worker count.
func (ps *ParallelScorer) ScoreAll(samples []*Sample) ([]float64, error) {
	n := len(samples)
	if n == 0 {
		return []float64{}, nil
	}
	workers := ps.workers
	if workers > n {
		workers = n
	}
	metScorerBatches.Inc()
	gaugeScorerWorkers.Set(float64(workers))
	batchStart := time.Now()

	out := make([]float64, n)
	var next atomic.Int64  // next sample index to claim
	var failed atomic.Bool // set once any worker errors
	var firstErr error     // guarded by errOnce
	var errOnce sync.Once
	var wg sync.WaitGroup

	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			handled := 0
			defer func() { histWorkerSamples.Observe(float64(handled)) }()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				// Queue wait: how long the sample sat in the batch before a
				// worker claimed it — the batch-level backlog signal.
				histQueueWait.Observe(time.Since(batchStart).Seconds())
				sp := stageScorerSample.Start()
				rng := rand.New(rand.NewSource(SampleSeed(ps.spec.seed, i)))
				score, err := scoreSample(ps.defense, &ps.spec, samples[i], rng)
				sp.End()
				if err != nil {
					errOnce.Do(func() { firstErr = fmt.Errorf("eval: sample %d: %w", i, err) })
					failed.Store(true)
					return
				}
				out[i] = score
				handled++
				metScorerSamples.Inc()
			}
		}()
	}
	wg.Wait()
	if failed.Load() {
		return nil, firstErr
	}
	return out, nil
}

// ScoreDataset scores the legit samples and one attack sample set and
// summarizes them, the common shape of every figure reproduction.
func (ps *ParallelScorer) ScoreDataset(name string, legit, attacks []*Sample) (Summary, error) {
	legitScores, err := ps.ScoreAll(legit)
	if err != nil {
		return Summary{}, err
	}
	attackScores, err := ps.ScoreAll(attacks)
	if err != nil {
		return Summary{}, err
	}
	return Summarize(name, legitScores, attackScores)
}
