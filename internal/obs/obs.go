// Package obs is the dependency-free observability layer of the defense
// pipeline: counters, gauges, streaming histograms with quantile export,
// and stage timers for pipeline spans, all safe for lock-free concurrent
// use by the parallel scoring workers.
//
// Design constraints (see DESIGN.md section 10):
//
//   - Zero allocations in steady state. Every record call — Counter.Add,
//     Gauge.Set, Histogram.Observe, StageTimer span Start/End — performs
//     only atomic operations on memory allocated at registration time, so
//     instrumentation can stay enabled in production hot paths (the same
//     bar as the internal/dsp kernels, pinned by testing.AllocsPerRun).
//   - Lock-free recording. Registration (cold path) takes a mutex;
//     recording never does. Histograms are fixed log-linear bucket arrays
//     updated with atomic increments, and their float64 sum/min/max are
//     maintained with CAS loops.
//   - No dependencies beyond the standard library, and none outside
//     sync/atomic + math on the hot path.
//
// The process-wide registry is obs.Default(); instrumented packages bind
// their metric handles to it at init. Every registry always records: a
// record call is its atomic update and nothing else.
package obs

import "sync"

// Registry owns a namespace of metrics. Metric constructors are
// idempotent: asking twice for the same name returns the same handle, so
// packages can bind handles at init without coordination. A registry is
// safe for concurrent use; recording into its metrics is lock-free.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// defaultRegistry is the process-wide registry instrumented packages bind
// to at init.
var defaultRegistry = New()

// Default returns the process-wide registry, recording from process start.
func Default() *Registry { return defaultRegistry }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = newHistogram()
		r.histograms[name] = h
	}
	return h
}

// StageTimer returns a timer over the named histogram (observing seconds),
// creating it on first use. The histogram appears in snapshots under the
// timer's name.
func (r *Registry) StageTimer(name string) *StageTimer {
	return &StageTimer{h: r.Histogram(name)}
}

// Snapshot is a point-in-time copy of every metric of a registry, shaped
// for JSON export (the /metrics endpoint of cmd/vibguardd).
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies the current value of every registered metric. Values are
// read atomically per metric; the snapshot as a whole is not a consistent
// cut across metrics (nor does it need to be for monitoring).
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := Snapshot{
		Counters:   make(map[string]uint64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.histograms)),
	}
	for name, c := range r.counters {
		snap.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		snap.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		snap.Histograms[name] = h.Snapshot()
	}
	return snap
}
