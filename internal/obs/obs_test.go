package obs

import (
	"sync"
	"testing"
)

func TestRegistryHandlesAreIdempotent(t *testing.T) {
	r := New()
	if r.Counter("a") != r.Counter("a") {
		t.Error("Counter not idempotent")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Error("Gauge not idempotent")
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Error("Histogram not idempotent")
	}
	if r.StageTimer("t").Histogram() != r.StageTimer("t").Histogram() {
		t.Error("StageTimer histograms not idempotent")
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	g := r.Gauge("g")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Errorf("gauge = %v, want 1.5", got)
	}
}

func TestNilHandlesAreSafe(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var st *StageTimer
	c.Inc()
	g.Set(1)
	h.Observe(1)
	st.Start().End()
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Error("nil handles should read zero")
	}
	if q := h.Quantile(0.5); q != 0 {
		t.Errorf("nil quantile = %v", q)
	}
}

// TestConcurrentUpdates hammers one counter, gauge, and histogram from
// many goroutines; under -race this is the lock-free-correctness gate,
// and the final counts must be exact.
func TestConcurrentUpdates(t *testing.T) {
	r := New()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	st := r.StageTimer("t")
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%97) + 0.5)
				st.Start().End()
				if i%100 == 0 {
					_ = r.Snapshot() // concurrent reads must be safe too
					_ = h.Quantile(0.9)
				}
			}
		}(w)
	}
	wg.Wait()
	const total = workers * perWorker
	if got := c.Value(); got != total {
		t.Errorf("counter = %d, want %d", got, total)
	}
	if got := g.Value(); got != total {
		t.Errorf("gauge = %v, want %d", got, total)
	}
	if got := h.Count(); got != total {
		t.Errorf("histogram count = %d, want %d", got, total)
	}
	if got := st.Histogram().Count(); got != total {
		t.Errorf("timer count = %d, want %d", got, total)
	}
	wantSum := float64(0)
	for i := 0; i < perWorker; i++ {
		wantSum += float64(i%97) + 0.5
	}
	wantSum *= workers
	if got := h.Sum(); got < wantSum*0.999 || got > wantSum*1.001 {
		t.Errorf("histogram sum = %v, want ~%v", got, wantSum)
	}
}

func TestSnapshotCoversAllMetrics(t *testing.T) {
	r := New()
	r.Counter("c").Add(3)
	r.Gauge("g").Set(7)
	r.Histogram("h").Observe(1)
	r.StageTimer("t").Start().End()
	snap := r.Snapshot()
	if snap.Counters["c"] != 3 {
		t.Errorf("counter snapshot = %d", snap.Counters["c"])
	}
	if snap.Gauges["g"] != 7 {
		t.Errorf("gauge snapshot = %v", snap.Gauges["g"])
	}
	if snap.Histograms["h"].Count != 1 {
		t.Errorf("histogram snapshot = %+v", snap.Histograms["h"])
	}
	if snap.Histograms["t"].Count != 1 {
		t.Errorf("timer snapshot = %+v", snap.Histograms["t"])
	}
	if n := len(snap.Counters) + len(snap.Gauges) + len(snap.Histograms); n != 4 {
		t.Errorf("snapshot holds %d metrics, want 4: %+v", n, snap)
	}
}

func TestStageTimerRecordsPositiveSpans(t *testing.T) {
	r := New()
	st := r.StageTimer("stage")
	for i := 0; i < 10; i++ {
		sp := st.Start()
		busyWork()
		sp.End()
	}
	h := st.Histogram()
	if h.Count() != 10 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() <= 0 {
		t.Errorf("sum = %v, want > 0", h.Sum())
	}
	snap := h.Snapshot()
	if snap.Min < 0 || snap.Max < snap.Min || snap.P50 < snap.Min || snap.P50 > snap.Max {
		t.Errorf("inconsistent snapshot %+v", snap)
	}
}

var busySink float64

func busyWork() {
	for i := 0; i < 100; i++ {
		busySink += float64(i)
	}
}

// TestDefaultRegistryRecords checks that Default returns one shared
// registry, and that a handle bound to it records from its first update
// and shows in the snapshot.
func TestDefaultRegistryRecords(t *testing.T) {
	if Default() != Default() {
		t.Fatal("Default returned two registries")
	}
	const name = "obs.test.default_records"
	c := Default().Counter(name)
	if Default().Counter(name) != c {
		t.Fatal("Default counter not idempotent")
	}
	before := c.Value()
	c.Inc()
	if got := c.Value(); got != before+1 {
		t.Fatalf("counter = %d, want %d", got, before+1)
	}
	if got := Default().Snapshot().Counters[name]; got != before+1 {
		t.Errorf("snapshot counter = %d, want %d", got, before+1)
	}
}
