package obs

import "testing"

// The record calls run inside the scoring hot paths of every pipeline
// stage, so they are pinned at zero allocations per operation — the same
// bar as the internal/dsp kernels. A regression here means a heap escape
// crept into the instrumentation and the stage timers can no longer stay
// enabled in production.

func TestCounterIncZeroAlloc(t *testing.T) {
	c := New().Counter("c")
	if avg := testing.AllocsPerRun(100, func() { c.Inc() }); avg != 0 {
		t.Errorf("Counter.Inc allocates %v per op, want 0", avg)
	}
}

func TestGaugeSetZeroAlloc(t *testing.T) {
	g := New().Gauge("g")
	if avg := testing.AllocsPerRun(100, func() { g.Set(1.5); g.Add(0.25) }); avg != 0 {
		t.Errorf("Gauge.Set/Add allocates %v per op, want 0", avg)
	}
}

func TestHistogramObserveZeroAlloc(t *testing.T) {
	h := New().Histogram("h")
	v := 1e-3
	if avg := testing.AllocsPerRun(100, func() { h.Observe(v); v *= 1.01 }); avg != 0 {
		t.Errorf("Histogram.Observe allocates %v per op, want 0", avg)
	}
}

func TestStageTimerSpanZeroAlloc(t *testing.T) {
	st := New().StageTimer("t")
	if avg := testing.AllocsPerRun(100, func() { st.Start().End() }); avg != 0 {
		t.Errorf("StageTimer span allocates %v per op, want 0", avg)
	}
}
