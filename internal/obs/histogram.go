package obs

import (
	"math"
	"sync/atomic"
)

// Histogram bucket layout: log-linear, subCount linear sub-buckets per
// power of two, covering binary exponents [minExp, maxExp] (math.Frexp
// convention: v = frac * 2^exp, frac in [0.5, 1)). Bucket 0 catches
// underflow (including zero and negative observations, which are clamped),
// the last bucket catches overflow. With subCount = 8 the worst-case
// relative quantization error is 1/16 ≈ 6%, plenty for latency quantiles,
// and the whole histogram is ~4 KiB of fixed memory.
//
// For timer histograms the observed unit is seconds: the range spans
// 2^-41 s (~0.5 ps) to 2^23 s (~97 days), so any realistic span lands in a
// main bucket.
const (
	histSubCount = 8
	histMinExp   = -40
	histMaxExp   = 23
	histOctaves  = histMaxExp - histMinExp + 1
	histBuckets  = histOctaves*histSubCount + 2 // + underflow + overflow
)

// Histogram is a streaming histogram over nonnegative float64 observations
// with quantile export. Observe is lock-free and allocation-free: one
// atomic bucket increment plus CAS updates of sum/min/max on fixed
// storage. Negative observations are clamped to zero.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64 // float64 bits, CAS-add
	min     atomic.Uint64 // float64 bits
	max     atomic.Uint64 // float64 bits
	buckets [histBuckets]atomic.Uint64
}

func newHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.Float64bits(math.Inf(1)))
	h.max.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// bucketIndex maps an observation to its bucket.
func bucketIndex(v float64) int {
	if v <= 0 || math.IsNaN(v) {
		return 0
	}
	if math.IsInf(v, 1) { // Frexp(+Inf) = +Inf, 0 — route it to overflow
		return histBuckets - 1
	}
	frac, exp := math.Frexp(v)
	if exp < histMinExp {
		return 0
	}
	if exp > histMaxExp {
		return histBuckets - 1
	}
	sub := int((frac - 0.5) * 2 * histSubCount)
	if sub >= histSubCount { // guard the frac -> 1 float edge
		sub = histSubCount - 1
	}
	return 1 + (exp-histMinExp)*histSubCount + sub
}

// bucketBounds returns the value range [lower, upper) covered by a bucket.
func bucketBounds(i int) (lower, upper float64) {
	switch {
	case i <= 0:
		return 0, math.Ldexp(1, histMinExp-1)
	case i >= histBuckets-1:
		return math.Ldexp(1, histMaxExp), math.Inf(1)
	default:
		o := (i - 1) / histSubCount
		s := (i - 1) % histSubCount
		exp := histMinExp + o
		lower = math.Ldexp(1+float64(s)/histSubCount, exp-1)
		upper = math.Ldexp(1+float64(s+1)/histSubCount, exp-1)
		return lower, upper
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if v < 0 || math.IsNaN(v) {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	casAdd(&h.sum, v)
	casMin(&h.min, v)
	casMax(&h.max, v)
}

func casAdd(a *atomic.Uint64, delta float64) {
	for {
		old := a.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if a.CompareAndSwap(old, next) {
			return
		}
	}
}

func casMin(a *atomic.Uint64, v float64) {
	for {
		old := a.Load()
		if math.Float64frombits(old) <= v {
			return
		}
		if a.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func casMax(a *atomic.Uint64, v float64) {
	for {
		old := a.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if a.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Quantile estimates the q-quantile (q in [0, 1]) from the bucket counts,
// interpolating linearly inside the selected bucket and clamping to the
// observed min/max. It returns 0 for an empty histogram. Quantile reads
// the buckets without a consistent cut, which is fine for monitoring;
// accuracy is bounded by the log-linear bucket width (~6% relative).
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	obsMin := math.Float64frombits(h.min.Load())
	obsMax := math.Float64frombits(h.max.Load())
	target := q * float64(total)
	cum := 0.0
	for i := 0; i < histBuckets; i++ {
		n := float64(h.buckets[i].Load())
		if n == 0 {
			continue
		}
		if cum+n >= target {
			lower, upper := bucketBounds(i)
			if lower < obsMin {
				lower = obsMin
			}
			if upper > obsMax {
				upper = obsMax
			}
			if upper < lower {
				upper = lower
			}
			frac := (target - cum) / n
			return lower + (upper-lower)*frac
		}
		cum += n
	}
	return obsMax
}

// HistogramSnapshot is a point-in-time summary shaped for JSON export.
type HistogramSnapshot struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// Snapshot summarizes the histogram. An empty histogram reports all
// zeros (never NaN/Inf, so the snapshot always JSON-encodes).
func (h *Histogram) Snapshot() HistogramSnapshot {
	count := h.Count()
	if count == 0 {
		return HistogramSnapshot{}
	}
	sum := h.Sum()
	return HistogramSnapshot{
		Count: count,
		Sum:   sum,
		Min:   math.Float64frombits(h.min.Load()),
		Max:   math.Float64frombits(h.max.Load()),
		Mean:  sum / float64(count),
		P50:   h.Quantile(0.5),
		P90:   h.Quantile(0.9),
		P99:   h.Quantile(0.99),
	}
}
