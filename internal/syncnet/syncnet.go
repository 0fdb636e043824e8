// Package syncnet implements the cross-device synchronization of Section
// VI-A: the VA device and the wearable share a local WiFi network; upon
// detecting a wake word the VA sends a trigger message so the wearable
// records the same voice command, and the residual offset caused by
// network delay (~100 ms) is estimated and removed with the
// cross-correlation of Eq. (5).
//
// The transport is real TCP speaking the internal/wire frame format, the
// same frames every other network hop uses: the VA sends a FrameTrigger
// and the wearable answers on the same stream id with a FrameRecording or
// a FrameWearableError. Network delay is additionally modeled as a
// sample-domain offset on the wearable recording, which is what the
// correlation-based estimator corrects.
package syncnet

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"vibguard/internal/dsp"
	"vibguard/internal/wire"
)

// RecordFunc produces the wearable's recording for a trigger.
type RecordFunc func(sessionID uint64) ([]float64, error)

// WearableAgent is the wearable-side server: it accepts connections from
// the VA device and answers trigger frames with recordings.
type WearableAgent struct {
	listener net.Listener
	recordFn RecordFunc
	onError  func(error)

	errCount atomic.Uint64

	mu      sync.Mutex
	closed  bool
	lastErr error
	conns   map[net.Conn]struct{}
	wg      sync.WaitGroup
}

// AgentOption configures a WearableAgent.
type AgentOption func(*WearableAgent)

// WithConnErrorHandler installs a callback invoked (from the connection's
// goroutine) for every per-connection failure: decode errors from corrupt
// or reset streams, record-func failures, and reply-encode errors. Clean
// client disconnects (EOF between frames) and connections ended by Close
// are not reported.
func WithConnErrorHandler(fn func(error)) AgentOption {
	return func(a *WearableAgent) { a.onError = fn }
}

// NewWearableAgent starts a wearable agent listening on addr
// (e.g. "127.0.0.1:0").
func NewWearableAgent(addr string, record RecordFunc, opts ...AgentOption) (*WearableAgent, error) {
	if record == nil {
		return nil, fmt.Errorf("syncnet: nil record func")
	}
	a := &WearableAgent{recordFn: record, conns: make(map[net.Conn]struct{})}
	for _, opt := range opts {
		opt(a)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("syncnet: listen: %w", err)
	}
	a.listener = ln
	a.wg.Add(1)
	go a.serve()
	return a, nil
}

// ConnErrors returns the number of per-connection failures observed since
// the agent started. A reset mid-stream counts once; the agent keeps
// serving other connections.
func (a *WearableAgent) ConnErrors() uint64 { return a.errCount.Load() }

// LastConnError returns the most recent per-connection failure (nil if
// none).
func (a *WearableAgent) LastConnError() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lastErr
}

// reportConnError records a per-connection failure instead of silently
// dropping it: the counter and last-error snapshot feed health metrics, and
// the optional handler feeds logs. The handler runs before the counter
// increment, so an observer that sees ConnErrors() > 0 is guaranteed the
// handler for that failure already completed.
func (a *WearableAgent) reportConnError(err error) {
	if a.onError != nil {
		a.onError(err)
	}
	a.mu.Lock()
	a.lastErr = err
	a.mu.Unlock()
	a.errCount.Add(1)
}

// Addr returns the agent's listen address.
func (a *WearableAgent) Addr() string { return a.listener.Addr().String() }

// Close stops the agent and waits for its connections to end. A VA client
// may hold its connection open across many commands, so Close does not
// wait for the client to hang up: every connection waiting for its next
// trigger is unblocked and closed, while a trigger already being recorded
// still gets its reply first.
func (a *WearableAgent) Close() error {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return nil
	}
	a.closed = true
	for conn := range a.conns {
		_ = conn.SetReadDeadline(time.Now())
	}
	a.mu.Unlock()
	err := a.listener.Close()
	a.wg.Wait()
	return err
}

func (a *WearableAgent) serve() {
	defer a.wg.Done()
	for {
		conn, err := a.listener.Accept()
		if err != nil {
			return // listener closed
		}
		a.mu.Lock()
		if a.closed {
			a.mu.Unlock()
			_ = conn.Close()
			return
		}
		a.conns[conn] = struct{}{}
		a.mu.Unlock()
		a.wg.Add(1)
		go func() {
			defer a.wg.Done()
			a.handle(conn)
		}()
	}
}

func (a *WearableAgent) handle(conn net.Conn) {
	defer func() {
		a.mu.Lock()
		delete(a.conns, conn)
		a.mu.Unlock()
		_ = conn.Close()
	}()
	br := bufio.NewReader(conn)
	var payload []byte // reused by every recording sent on this connection
	for {
		f, err := wire.ReadFrame(br)
		if err != nil {
			// A clean EOF between frames is a normal client disconnect, and
			// Close ends idle connections on purpose; anything else
			// (mid-frame reset, corrupt stream) is a real per-connection
			// failure and must be surfaced, not swallowed.
			a.mu.Lock()
			closed := a.closed
			a.mu.Unlock()
			if !closed && !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				a.reportConnError(fmt.Errorf("syncnet: agent decode: %w", err))
			}
			return
		}
		reply := wire.Frame{Type: wire.FrameRecording, Stream: f.Stream}
		if samples, err := a.record(f); err != nil {
			reply.Type, reply.Payload = wire.FrameWearableError, wire.AppendString(nil, err.Error())
		} else {
			payload = wire.AppendSamples(payload[:0], samples)
			reply.Payload = payload
		}
		if err := wire.WriteFrame(conn, reply); err != nil {
			if !errors.Is(err, net.ErrClosed) {
				a.reportConnError(fmt.Errorf("syncnet: agent encode: %w", err))
			}
			return
		}
	}
}

// record answers one frame: the recording for a well-formed trigger, and
// a reported error for a failed recording or any other frame.
func (a *WearableAgent) record(f wire.Frame) ([]float64, error) {
	var samples []float64
	err := DecodeTriggerPayload(f.Payload)
	if f.Type != wire.FrameTrigger {
		err = fmt.Errorf("unexpected frame type %d", f.Type)
	} else if err == nil {
		samples, err = a.recordFn(f.Stream)
	}
	if err != nil {
		a.reportConnError(fmt.Errorf("syncnet: agent: %w", err))
	}
	return samples, err
}

// The wearable-link payloads. A trigger payload is empty; a recording
// payload is one wire sample block (wire.AppendSamples); a wearable-error
// payload is one message string (wire.AppendString). Each decoder
// requires its payload to be consumed exactly and fails with
// wire.ErrMalformedFrame otherwise.

// DecodeTriggerPayload checks a FrameTrigger payload, which must be
// empty.
func DecodeTriggerPayload(p []byte) error {
	if len(p) != 0 {
		return fmt.Errorf("%w: %d-byte trigger payload", wire.ErrMalformedFrame, len(p))
	}
	return nil
}

// DecodeRecordingPayload decodes a FrameRecording payload.
func DecodeRecordingPayload(p []byte) ([]float64, error) {
	samples, rest, err := wire.TakeSamples(p)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", wire.ErrMalformedFrame, len(rest))
	}
	return samples, nil
}

// DecodeWearableErrorPayload decodes a FrameWearableError payload.
func DecodeWearableErrorPayload(p []byte) (*WearableError, error) {
	msg, rest, err := wire.TakeString(p)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", wire.ErrMalformedFrame, len(rest))
	}
	return &WearableError{Msg: msg}, nil
}

// VAClient is the VA-side client that triggers wearable recordings.
type VAClient struct {
	conn net.Conn
	br   *bufio.Reader

	mu      sync.Mutex
	session uint64
}

// DialWearable connects to a wearable agent with a single attempt; see
// ReliableClient for the hardened path.
func DialWearable(addr string, timeout time.Duration) (*VAClient, error) {
	return dialWearableVia(tcpDial, addr, timeout)
}

// dialWearableVia connects through an arbitrary transport dial.
func dialWearableVia(dial DialFunc, addr string, timeout time.Duration) (*VAClient, error) {
	conn, err := dial(addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("syncnet: dial: %w", err)
	}
	return &VAClient{conn: conn, br: bufio.NewReader(conn)}, nil
}

// Close closes the client connection.
func (c *VAClient) Close() error { return c.conn.Close() }

// RequestRecording sends a trigger and waits for the wearable's recording.
// A wearable-side failure returns a *WearableError; every other error
// (including a reply on the wrong stream or of the wrong type) means the
// connection can no longer be trusted.
func (c *VAClient) RequestRecording(timeout time.Duration) ([]float64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.session++
	id := c.session
	if timeout > 0 {
		if err := c.conn.SetDeadline(time.Now().Add(timeout)); err != nil {
			return nil, fmt.Errorf("syncnet: deadline: %w", err)
		}
		defer func() { _ = c.conn.SetDeadline(time.Time{}) }()
	}
	if err := wire.WriteFrame(c.conn, wire.Frame{Type: wire.FrameTrigger, Stream: id}); err != nil {
		return nil, fmt.Errorf("syncnet: send trigger: %w", err)
	}
	reply, err := wire.ReadFrame(c.br)
	if err != nil {
		return nil, fmt.Errorf("syncnet: read reply: %w", err)
	}
	if reply.Stream != id {
		return nil, fmt.Errorf("syncnet: %w: reply on stream %d, want %d", wire.ErrMalformedFrame, reply.Stream, id)
	}
	switch reply.Type {
	case wire.FrameRecording:
		return DecodeRecordingPayload(reply.Payload)
	case wire.FrameWearableError:
		wearErr, err := DecodeWearableErrorPayload(reply.Payload)
		if err != nil {
			return nil, err
		}
		return nil, wearErr
	default:
		return nil, fmt.Errorf("syncnet: %w: unexpected reply type %d", wire.ErrMalformedFrame, reply.Type)
	}
}

// ErrNoOverlap is returned when the recordings share no usable content.
var ErrNoOverlap = errors.New("syncnet: recordings do not overlap")

// SimulateNetworkDelay models the trigger message's network latency: the
// wearable serves its recording from a continuous buffer, so relative to
// the VA recording it carries delaySeconds of extra pre-command ambient
// context at the front, which AlignRecordings must strip.
func SimulateNetworkDelay(wearable []float64, delaySeconds, sampleRate float64, rng *rand.Rand) []float64 {
	n := int(delaySeconds * sampleRate)
	if n <= 0 {
		out := make([]float64, len(wearable))
		copy(out, wearable)
		return out
	}
	lead := make([]float64, n)
	noise := dsp.RMS(wearable) * 0.01
	for i := range lead {
		lead[i] = noise * rng.NormFloat64()
	}
	return dsp.Concat(lead, wearable)
}

// AlignRecordings estimates the offset of the wearable recording relative
// to the VA recording with the cross-correlation of Eq. (5) and removes
// the first tau_est samples of the wearable recording so both start at the
// same instant. maxLagSeconds bounds the search (network delays are
// ~100 ms, so 0.5 s is a safe bound). The aligned recording is
// wearable[tau_est:], not a copy. It is AlignDevices for one wearable.
func AlignRecordings(va, wearable []float64, maxLagSeconds, sampleRate float64) ([]float64, int, error) {
	aligned, taus, errs := AlignDevices(va, [][]float64{wearable}, maxLagSeconds, sampleRate)
	return aligned[0], taus[0], errs[0]
}

// AlignDevices is AlignRecordings for each of several wearable recordings
// against one VA recording: the exact Eq. (5) argmax over the whole lag
// range, on real-input transforms that take the VA recording's spectrum
// once per transform length, not once per wearable (dsp.EstimateDelays).
func AlignDevices(va []float64, wears [][]float64, maxLagSeconds, sampleRate float64) (aligned [][]float64, taus []int, errs []error) {
	aligned = make([][]float64, len(wears))
	errs = make([]error, len(wears))
	maxLags := make([]int, len(wears))
	for i, w := range wears {
		maxLags[i] = maxLagSamples(len(w), maxLagSeconds, sampleRate)
	}
	taus = dsp.EstimateDelays(va, wears, maxLags)
	for i, w := range wears {
		if len(va) == 0 || len(w) == 0 {
			errs[i] = ErrNoOverlap
			continue
		}
		aligned[i] = w[taus[i]:]
	}
	return aligned, taus, errs
}

// maxLagSamples is maxLagSeconds at sampleRate, clamped to a wearable
// recording of wearLen samples, in the float domain first: a non-finite
// or absurd product would make the int conversion implementation-defined.
func maxLagSamples(wearLen int, maxLagSeconds, sampleRate float64) int {
	lagf := maxLagSeconds * sampleRate
	if math.IsNaN(lagf) || lagf < 0 {
		lagf = 0
	}
	maxLag := wearLen - 1
	if lagf < float64(maxLag) {
		maxLag = int(lagf)
	}
	return maxLag
}
