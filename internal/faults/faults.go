// Package faults provides deterministic, seedable fault injection for the
// defense pipeline: dialer wrappers whose connections inject latency, jitter,
// partial reads, refused dials, and mid-stream resets, plus signal-level
// corruptors (truncation, clipping, non-finite samples, DC offset,
// sample-rate mismatch, dropouts).
//
// Every fault decision derives from a SplitMix64 stream seeded by
// (Seed, connection index) — the same derivation scheme as eval.SampleSeed —
// so a fixed seed reproduces the exact fault sequence regardless of
// scheduling. That property is what makes the fault-matrix simulation suite
// (matrix_test.go) deterministic: each (network fault × signal fault) cell
// either produces the same verdict bits on every run or fails the same typed
// error.
package faults

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"vibguard/internal/obs"
)

// Typed-error counters: every injected transport fault increments the
// counter matching its error, so a fault-matrix run shows up in /metrics
// next to the syncnet retry counters it provokes.
var (
	metInjectedRefusals = obs.Default().Counter("faults.injected.refusals")
	metInjectedResets   = obs.Default().Counter("faults.injected.resets")
)

// Injected transport errors. They are returned (and observed by the peer as
// an aborted connection) when the corresponding NetSpec knob fires.
var (
	// ErrInjectedRefusal is returned by a wrapped dialer for dial attempts
	// the spec refuses outright, modeling an unreachable wearable.
	ErrInjectedRefusal = errors.New("faults: injected connection refusal")
	// ErrInjectedReset is returned by a faulted connection's Read once its
	// byte budget is exhausted; the underlying connection is aborted so the
	// peer observes a reset too.
	ErrInjectedReset = errors.New("faults: injected connection reset")
)

// NetSpec configures deterministic network-fault injection. The zero value
// injects nothing.
type NetSpec struct {
	// Seed drives every random fault decision. Connections derive their
	// private RNG from (Seed, connection index), so the fault sequence is
	// reproducible and independent of goroutine scheduling.
	Seed int64
	// Latency is a fixed delay added to every Read.
	Latency time.Duration
	// Jitter adds a uniform random delay in [0, Jitter) to every Read.
	Jitter time.Duration
	// ReadChunk caps the bytes returned by a single Read (0 = unlimited),
	// forcing the peer's decoder to reassemble frames from partial reads.
	ReadChunk int
	// RefuseDials fails this many initial dial attempts with
	// ErrInjectedRefusal before letting connections through.
	RefuseDials int
	// ResetConnections marks this many initial established connections as
	// destructive: their Reads fail with ErrInjectedReset once
	// ResetAfterBytes have been delivered. A negative value marks every
	// connection (a black-holed link that no retry can survive).
	ResetConnections int
	// ResetAfterBytes is the byte budget of a destructive connection.
	ResetAfterBytes int64
}

// Injector wraps dialers with the fault behavior of one NetSpec. Dial
// attempts and established connections are counted across the injector's
// lifetime, so "the first N connections misbehave" is well defined even
// when dials race.
type Injector struct {
	spec  NetSpec
	dials atomic.Int64
	conns atomic.Int64
}

// NewInjector creates an injector for the spec.
func NewInjector(spec NetSpec) *Injector { return &Injector{spec: spec} }

// WrapDial returns a dial function that injects the spec's faults. A nil
// base uses net.DialTimeout over TCP. The returned function matches
// syncnet.DialFunc, so it plugs straight into syncnet.WithDialFunc.
func (in *Injector) WrapDial(base func(addr string, timeout time.Duration) (net.Conn, error)) func(addr string, timeout time.Duration) (net.Conn, error) {
	if base == nil {
		base = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	return func(addr string, timeout time.Duration) (net.Conn, error) {
		attempt := in.dials.Add(1) - 1
		if attempt < int64(in.spec.RefuseDials) {
			metInjectedRefusals.Inc()
			return nil, ErrInjectedRefusal
		}
		conn, err := base(addr, timeout)
		if err != nil {
			return nil, err
		}
		return in.wrap(conn), nil
	}
}

func (in *Injector) wrap(conn net.Conn) net.Conn {
	idx := in.conns.Add(1) - 1
	destructive := in.spec.ResetConnections < 0 || idx < int64(in.spec.ResetConnections)
	return &faultConn{
		Conn:        conn,
		spec:        &in.spec,
		destructive: destructive,
		rng:         rand.New(rand.NewSource(Mix(in.spec.Seed, idx))),
	}
}

// faultConn injects the spec's read-side faults. Requests in the syncnet
// protocol are tiny, so read-side faults exercise both directions: a reset
// aborts the underlying connection, which the peer observes on its next
// read or write.
type faultConn struct {
	net.Conn
	spec        *NetSpec
	destructive bool

	mu   sync.Mutex
	rng  *rand.Rand
	read int64
}

func (c *faultConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	delay := c.spec.Latency
	if c.spec.Jitter > 0 {
		delay += time.Duration(c.rng.Int63n(int64(c.spec.Jitter)))
	}
	if c.spec.ReadChunk > 0 && len(p) > c.spec.ReadChunk {
		p = p[:c.spec.ReadChunk]
	}
	reset := false
	if c.destructive {
		remaining := c.spec.ResetAfterBytes - c.read
		if remaining <= 0 {
			reset = true
		} else if int64(len(p)) > remaining {
			p = p[:remaining]
		}
	}
	c.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	if reset {
		metInjectedResets.Inc()
		c.abort()
		return 0, ErrInjectedReset
	}
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.read += int64(n)
	c.mu.Unlock()
	return n, err
}

// abort tears the connection down so the peer sees a hard reset rather than
// a clean close: for TCP, SO_LINGER(0) makes Close send an RST.
func (c *faultConn) abort() {
	if tc, ok := c.Conn.(*net.TCPConn); ok {
		_ = tc.SetLinger(0)
	}
	_ = c.Conn.Close()
}

// Mix derives a decorrelated RNG seed from (seed, index) with the
// SplitMix64 finalizer, matching eval.SampleSeed: per-index fault streams
// depend only on the pair, never on scheduling order.
func Mix(seed, index int64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(uint64(index)+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}
