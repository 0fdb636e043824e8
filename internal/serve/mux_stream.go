package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"

	"vibguard/internal/core"
	"vibguard/internal/wire"
)

// Streamed sessions over the multiplexed connection: instead of one
// request frame carrying the whole VA recording, the client sends chunk
// frames as audio arrives and the server answers the moment the streaming
// pipeline reaches a verdict — before the recording ends when the early
// exit fires (wire.FrameVerdictEarly), at stream close otherwise. Chunks of
// many sessions interleave freely on one connection; a stream's chunks are
// ordered by TCP, which is all the inspector needs.

// ErrStreamingUnsupported is returned (across the wire) when a peer
// receives chunk frames but was not configured with a stream handler.
var ErrStreamingUnsupported = errors.New("serve: peer does not accept streamed sessions")

// StreamSessionHandler runs one streamed session: the request carries the
// session fields (no recording); chunks arrive on the channel until the
// sender closes it. The handler may return before the channel closes —
// that is the early exit, and the mux then answers with wire.FrameVerdictEarly.
// The context is canceled if the connection dies mid-stream.
type StreamSessionHandler func(ctx context.Context, req Request, chunks <-chan []float64) (*core.Verdict, error)

// inboundStream is the server-side state of one open chunk stream.
type inboundStream struct {
	ch     chan []float64
	done   chan struct{} // closed when the handler returns
	cancel context.CancelFunc
}

// inboundChunkBuffer bounds the per-stream chunk queue between the read
// loop and the handler. A full queue backpressures the whole connection
// (the read loop blocks), which is the same head-of-line tradeoff TCP
// would impose anyway — chunks are ordered within a stream.
const inboundChunkBuffer = 256

// ServeMuxConnStream runs the server half of the multiplexed protocol on
// conn until the peer closes (or half-closes) it: request frames fan out
// to handler goroutines, pings are answered immediately, and chunk frames
// feed per-stream handler goroutines. The call only returns once every
// in-flight stream has written its response — which is what lets a drain
// half-close the connection and still flush final verdicts. A nil stream
// handler rejects chunk frames with ErrStreamingUnsupported instead of
// killing the connection. The caller owns closing conn.
func ServeMuxConnStream(conn net.Conn, handle SessionHandler, stream StreamSessionHandler) {
	br := bufio.NewReader(conn)
	w := newFrameWriter(conn)
	var streams sync.WaitGroup
	open := make(map[uint64]*inboundStream)
	// Streams whose header chunk was rejected: the client learns of the
	// rejection asynchronously, so chunks it already had in flight keep
	// arriving and must be discarded — answering each with another error
	// frame would double-resolve the stream client-side. The tombstone
	// lives until the stream's final chunk.
	rejected := make(map[uint64]bool)
	defer func() {
		// The read loop is done (close, half-close, or framing error).
		// Abort streams still open: cancel their contexts and close their
		// channels so handlers unblock; their writes go to the dead
		// connection and fail harmlessly.
		for _, st := range open {
			st.cancel()
			close(st.ch)
		}
		streams.Wait()
	}()
	for {
		f, err := wire.ReadFrame(br)
		if err != nil {
			return
		}
		switch f.Type {
		case wire.FramePing:
			_ = w.write(wire.Frame{Type: wire.FramePong, Stream: f.Stream})
		case wire.FrameRequest:
			req, err := DecodeRequestPayload(f.Payload)
			if err != nil {
				_ = w.write(wire.Frame{Type: wire.FrameError, Stream: f.Stream,
					Payload: AppendErrorPayload(nil, err)})
				continue
			}
			streams.Add(1)
			go func(stream uint64, req Request) {
				defer streams.Done()
				v, err := handle(context.Background(), req)
				writeSessionResult(w, stream, v, err)
			}(f.Stream, req)
		case wire.FrameChunk:
			c, err := DecodeChunkPayload(f.Payload)
			if err != nil {
				_ = w.write(wire.Frame{Type: wire.FrameError, Stream: f.Stream,
					Payload: AppendErrorPayload(nil, err)})
				continue
			}
			st, ok := open[f.Stream]
			if !ok {
				if rejected[f.Stream] {
					if c.Final {
						delete(rejected, f.Stream)
					}
					continue
				}
				if !c.Header {
					_ = w.write(wire.Frame{Type: wire.FrameError, Stream: f.Stream,
						Payload: AppendErrorPayload(nil,
							fmt.Errorf("%w: chunk for unopened stream", wire.ErrMalformedFrame))})
					if !c.Final {
						rejected[f.Stream] = true
					}
					continue
				}
				if stream == nil {
					_ = w.write(wire.Frame{Type: wire.FrameError, Stream: f.Stream,
						Payload: AppendErrorPayload(nil, ErrStreamingUnsupported)})
					if !c.Final {
						rejected[f.Stream] = true
					}
					continue
				}
				ctx, cancel := context.WithCancel(context.Background())
				st = &inboundStream{
					ch:     make(chan []float64, inboundChunkBuffer),
					done:   make(chan struct{}),
					cancel: cancel,
				}
				open[f.Stream] = st
				streams.Add(1)
				go func(streamID uint64, req Request, st *inboundStream) {
					defer streams.Done()
					defer close(st.done)
					defer cancel()
					v, err := stream(ctx, req, st.ch)
					writeSessionResult(w, streamID, v, err)
				}(f.Stream, c.Req, st)
			}
			if len(c.Samples) > 0 {
				// A handler that already returned (early exit) stops
				// draining; the done channel keeps the read loop moving.
				select {
				case st.ch <- c.Samples:
				case <-st.done:
				}
			}
			if c.Final {
				close(st.ch)
				delete(open, f.Stream)
			}
		default:
			// Verdict/error frames never flow client→server; a peer that
			// sends one is broken, so stop reading (in-flight streams
			// still flush via the deferred drain).
			return
		}
	}
}

// writeSessionResult writes one stream's terminal frame: a typed error, an
// early verdict (wire.FrameVerdictEarly with the consumed-sample count), or a
// plain verdict.
func writeSessionResult(w *frameWriter, stream uint64, v *core.Verdict, err error) {
	if err != nil {
		_ = w.write(wire.Frame{Type: wire.FrameError, Stream: stream,
			Payload: AppendErrorPayload(nil, err)})
		return
	}
	wv := wireVerdict{
		Score: v.Score, Attack: v.Attack,
		SyncOffset: v.SyncOffset, Spans: len(v.Spans),
	}
	if v.Early {
		_ = w.write(wire.Frame{Type: wire.FrameVerdictEarly, Stream: stream,
			Payload: AppendEarlyVerdictPayload(nil, wv, v.Consumed)})
		return
	}
	_ = w.write(wire.Frame{Type: wire.FrameVerdict, Stream: stream,
		Payload: AppendVerdictPayload(nil, wv)})
}

// ClientStream is one streamed session on a Client: opened with
// OpenStream, fed with Send, closed with CloseSend, resolved with Wait.
// Not safe for concurrent use (one goroutine feeds one session).
type ClientStream struct {
	c      *Client
	stream uint64
	ch     chan clientResult

	res    clientResult
	hasRes bool
	closed bool
}

// OpenStream starts a streamed session: the request's session fields
// (UserID, WearableAddr, RNGSeed) travel on the stream's header chunk; its
// VARecording field is ignored — audio flows through Send.
func (c *Client) OpenStream(req Request) (*ClientStream, error) {
	stream, ch, err := c.register()
	if err != nil {
		return nil, err
	}
	if err := c.w.write(wire.Frame{Type: wire.FrameChunk, Stream: stream,
		Payload: AppendChunkPayload(nil, wireChunk{Header: true, Req: req})}); err != nil {
		c.abandon(stream)
		return nil, fmt.Errorf("%w: send: %v", ErrConnLost, err)
	}
	return &ClientStream{c: c, stream: stream, ch: ch}, nil
}

// Send ships one chunk of VA audio. It returns done=true once the server's
// verdict has already arrived (the early exit): the caller should stop
// feeding and call Wait — further audio would only be dropped server-side.
func (s *ClientStream) Send(samples []float64) (done bool, err error) {
	if s.hasRes {
		return true, nil
	}
	select {
	case res := <-s.ch:
		s.res, s.hasRes = res, true
		return true, nil
	default:
	}
	if s.closed {
		return false, fmt.Errorf("serve: send on closed stream")
	}
	if err := s.c.w.write(wire.Frame{Type: wire.FrameChunk, Stream: s.stream,
		Payload: AppendChunkPayload(nil, wireChunk{Samples: samples})}); err != nil {
		return false, fmt.Errorf("%w: send: %v", ErrConnLost, err)
	}
	return false, nil
}

// CloseSend marks the stream's audio complete (the final chunk). The
// server's fallback pipeline then produces the verdict if no early exit
// fired. Idempotent; skipped when the verdict already arrived.
func (s *ClientStream) CloseSend() error {
	if s.closed || s.hasRes {
		s.closed = true
		return nil
	}
	s.closed = true
	if err := s.c.w.write(wire.Frame{Type: wire.FrameChunk, Stream: s.stream,
		Payload: AppendChunkPayload(nil, wireChunk{Final: true})}); err != nil {
		return fmt.Errorf("%w: send: %v", ErrConnLost, err)
	}
	return nil
}

// Wait blocks until the session's verdict (or typed error) arrives.
func (s *ClientStream) Wait() (*core.Verdict, error) {
	if !s.hasRes {
		s.res, s.hasRes = <-s.ch, true
	}
	return s.res.verdict, s.res.err
}

// Abort abandons the stream: the client stops waiting for its verdict and
// tombstones the stream id, so the server's eventual terminal frame is
// dropped silently instead of killing the shared connection as an
// unknown-stream protocol violation — and the stream id does not leak in
// the client's in-flight table. If the final chunk has not been sent yet,
// a best-effort one goes out so the server-side handler winds down with
// the batch fallback instead of waiting for audio that will never come
// (if it has, the server owes exactly one terminal frame already, and a
// second final chunk would draw a spurious error frame). A verdict that
// raced the abort wins: the stream resolves normally and Wait returns it.
// Idempotent; safe after CloseSend.
func (s *ClientStream) Abort() {
	if s.hasRes {
		return
	}
	select {
	case res := <-s.ch:
		s.res, s.hasRes = res, true
		return
	default:
	}
	if !s.c.abortPending(s.stream) {
		// Already resolved (result in flight to s.ch) or the connection
		// died and failed the stream; either way nothing is leaked.
		return
	}
	if !s.closed {
		s.closed = true
		_ = s.c.w.write(wire.Frame{Type: wire.FrameChunk, Stream: s.stream,
			Payload: AppendChunkPayload(nil, wireChunk{Final: true})})
	}
	s.res, s.hasRes = clientResult{err: fmt.Errorf("serve: stream aborted")}, true
}

// InspectStream streams a whole recording in cfg-sized chunks and returns
// the verdict — the convenience wrapper benchmarks and smoke tests use.
// The chunk size must be positive.
func (c *Client) InspectStream(req Request, chunkSamples int) (*core.Verdict, error) {
	if chunkSamples <= 0 {
		return nil, fmt.Errorf("serve: chunk size %d must be positive", chunkSamples)
	}
	rec := req.VARecording
	req.VARecording = nil
	s, err := c.OpenStream(req)
	if err != nil {
		return nil, err
	}
	for lo := 0; lo < len(rec); lo += chunkSamples {
		hi := lo + chunkSamples
		if hi > len(rec) {
			hi = len(rec)
		}
		done, err := s.Send(rec[lo:hi])
		if err != nil {
			return nil, err
		}
		if done {
			break
		}
	}
	if err := s.CloseSend(); err != nil {
		return nil, err
	}
	return s.Wait()
}
