package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"vibguard/internal/core"
	"vibguard/internal/wire"
)

// Connection multiplexing: many concurrent sessions share one TCP
// connection, each tagged with a stream id. The server side reads request
// frames in a loop and dispatches each to its own goroutine, so a slow
// session never head-of-line-blocks its neighbors; responses are
// serialized through a mutex-guarded writer. The client side keeps a
// pending-stream table and a demux read loop, so one Client supports any
// number of concurrent Inspect calls — the per-connection cost of a
// session is one frame each way, not a dial.

// ErrConnLost is the client-side transport failure: the multiplexed
// connection died (or delivered an undecodable frame) while sessions were
// pending. Every pending session fails with an error wrapping this
// sentinel, so callers — the router above all — can distinguish "the node
// vanished" from a typed application error the node itself sent.
var ErrConnLost = errors.New("serve: connection to server lost")

// frameWriter serializes frame writes from concurrent streams onto one
// connection. Each write flushes: frames are small (a verdict is ~30
// bytes) and latency beats batching for interactive sessions.
type frameWriter struct {
	mu sync.Mutex
	bw *bufio.Writer
}

func newFrameWriter(conn net.Conn) *frameWriter {
	return &frameWriter{bw: bufio.NewWriter(conn)}
}

func (w *frameWriter) write(f wire.Frame) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := wire.WriteFrame(w.bw, f); err != nil {
		return err
	}
	return w.bw.Flush()
}

// SessionHandler runs one decoded session to a verdict or a typed error.
// Server uses Submit; the router front-end uses Router.Submit, which is
// how both hops speak the identical protocol.
type SessionHandler func(ctx context.Context, req Request) (*core.Verdict, error)

// PingConn performs one ping/pong round trip on a raw connection within
// timeout. It is the router's health probe: a fresh dial plus PingConn
// proves the node accepts connections and speaks the protocol, not just
// that its port is open.
func PingConn(conn net.Conn, timeout time.Duration) error {
	if timeout > 0 {
		if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
			return err
		}
		defer func() { _ = conn.SetDeadline(time.Time{}) }()
	}
	if err := wire.WriteFrame(conn, wire.Frame{Type: wire.FramePing, Stream: 1}); err != nil {
		return fmt.Errorf("serve: ping: %w", err)
	}
	f, err := wire.ReadFrame(bufio.NewReader(conn))
	if err != nil {
		return fmt.Errorf("serve: ping: %w", err)
	}
	if f.Type != wire.FramePong || f.Stream != 1 {
		return fmt.Errorf("serve: ping: unexpected %d/%d reply", f.Type, f.Stream)
	}
	return nil
}

// clientResult is one stream's terminal delivery on the client side.
type clientResult struct {
	verdict *core.Verdict
	err     error
}

// Client is a VA-side client of the session front-end (a serve node or a
// router front-door — both speak the same protocol). One Client
// multiplexes any number of concurrent Inspect calls over a single TCP
// connection.
type Client struct {
	conn net.Conn
	w    *frameWriter

	mu      sync.Mutex
	next    uint64
	pending map[uint64]chan clientResult
	// aborted tombstones streams abandoned by Abort: the peer will still
	// send exactly one terminal frame for each, which must be dropped
	// silently instead of tripping deliver's unknown-stream kill.
	aborted map[uint64]bool
	dead    error // set once the read loop exits; nil while healthy
}

// DialServer connects to a session front-end.
func DialServer(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("serve: dial: %w", err)
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection (the router reuses this with
// its own fault-injectable dialer) and starts the demux read loop.
func NewClient(conn net.Conn) *Client {
	c := &Client{
		conn:    conn,
		w:       newFrameWriter(conn),
		pending: make(map[uint64]chan clientResult),
		aborted: make(map[uint64]bool),
	}
	go c.readLoop()
	return c
}

// Close closes the client connection; pending sessions fail with
// ErrConnLost.
func (c *Client) Close() error { return c.conn.Close() }

// readLoop demuxes response frames to their pending streams. Any read or
// decode failure is terminal for the connection: framing can no longer be
// trusted, so every pending stream fails with ErrConnLost.
func (c *Client) readLoop() {
	br := bufio.NewReader(c.conn)
	for {
		f, err := wire.ReadFrame(br)
		if err != nil {
			c.fail(fmt.Errorf("%w: %v", ErrConnLost, err))
			return
		}
		switch f.Type {
		case wire.FrameVerdict:
			v, err := DecodeVerdictPayload(f.Payload)
			if err != nil {
				c.fail(fmt.Errorf("%w: %v", ErrConnLost, err))
				return
			}
			c.deliver(f.Stream, clientResult{verdict: &core.Verdict{
				Score: v.Score, Attack: v.Attack, SyncOffset: v.SyncOffset,
			}})
		case wire.FrameVerdictEarly:
			v, consumed, err := DecodeEarlyVerdictPayload(f.Payload)
			if err != nil {
				c.fail(fmt.Errorf("%w: %v", ErrConnLost, err))
				return
			}
			c.deliver(f.Stream, clientResult{verdict: &core.Verdict{
				Score: v.Score, Attack: v.Attack, SyncOffset: v.SyncOffset,
				Early: true, Consumed: consumed,
			}})
		case wire.FrameError:
			sessErr, err := DecodeErrorPayload(f.Payload)
			if err != nil {
				c.fail(fmt.Errorf("%w: %v", ErrConnLost, err))
				return
			}
			c.deliver(f.Stream, clientResult{err: sessErr})
		default:
			c.fail(fmt.Errorf("%w: unexpected frame type %d", ErrConnLost, f.Type))
			return
		}
	}
}

// deliver resolves one stream. A response for a stream that is neither
// pending nor aborted — double-assignment of a session, or a response
// invented by the peer — is a protocol violation that kills the
// connection, which is how the soak's "none double-assigned" contract is
// enforced at the wire. An aborted stream's single terminal frame
// consumes its tombstone and is dropped silently.
func (c *Client) deliver(stream uint64, res clientResult) {
	c.mu.Lock()
	ch, ok := c.pending[stream]
	if ok {
		delete(c.pending, stream)
	} else if c.aborted[stream] {
		delete(c.aborted, stream)
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	if !ok {
		c.fail(fmt.Errorf("%w: response for unknown stream %d", ErrConnLost, stream))
		return
	}
	ch <- res
}

// fail marks the connection dead and resolves every pending stream.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.dead == nil {
		c.dead = err
	}
	stale := c.pending
	c.pending = make(map[uint64]chan clientResult)
	c.aborted = make(map[uint64]bool)
	c.mu.Unlock()
	_ = c.conn.Close()
	for _, ch := range stale {
		ch <- clientResult{err: err}
	}
}

// register allocates a stream id and its delivery channel.
func (c *Client) register() (uint64, chan clientResult, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead != nil {
		return 0, nil, c.dead
	}
	c.next++
	ch := make(chan clientResult, 1)
	c.pending[c.next] = ch
	return c.next, ch, nil
}

// abandon removes a stream that failed to send. No tombstone: the frame
// never reached the peer, so no response will ever arrive for it.
func (c *Client) abandon(stream uint64) {
	c.mu.Lock()
	delete(c.pending, stream)
	c.mu.Unlock()
}

// abortPending abandons a pending stream whose request DID reach the peer
// and tombstones it, so the peer's eventual terminal frame is swallowed.
// It reports whether the stream was still pending; false means a result
// (or connection failure) already resolved it and no tombstone is needed.
func (c *Client) abortPending(stream uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.pending[stream]; !ok {
		return false
	}
	delete(c.pending, stream)
	if c.dead == nil {
		c.aborted[stream] = true
	}
	return true
}

// InFlight returns the number of pending streams — sessions submitted but
// not yet resolved. A stream abandoned without Abort stays pending
// forever; this is the counter the relay-leak regression tests watch.
func (c *Client) InFlight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// Inspect submits one session and blocks until the verdict arrives. The
// returned verdict carries no spans (only their count crosses the wire);
// failures come back as the same typed errors Submit returns, and a dead
// connection as an error wrapping ErrConnLost. Concurrent Inspect calls
// multiplex the one connection.
func (c *Client) Inspect(req Request) (*core.Verdict, error) {
	stream, ch, err := c.register()
	if err != nil {
		return nil, err
	}
	if err := c.w.write(wire.Frame{Type: wire.FrameRequest, Stream: stream,
		Payload: AppendRequestPayload(nil, req)}); err != nil {
		c.abandon(stream)
		return nil, fmt.Errorf("%w: send: %v", ErrConnLost, err)
	}
	res := <-ch
	return res.verdict, res.err
}
