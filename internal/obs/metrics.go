package obs

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing event count. All methods are
// lock-free, allocation-free, and safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n to the counter.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 level that can move both ways (pool sizes, queue
// depths). All methods are lock-free, allocation-free, and safe for
// concurrent use.
type Gauge struct {
	v atomic.Uint64 // float64 bits
}

// Set stores the value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v.Store(math.Float64bits(v))
}

// Add shifts the gauge by delta with a CAS loop.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.v.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.v.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current level.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.v.Load())
}
