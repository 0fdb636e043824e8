package serve

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"testing"

	"vibguard/internal/syncnet"
	"vibguard/internal/wire"
)

// FuzzDecodeFrame is the wire-protocol fuzz target for every network
// hop. The decoding contract (internal/wire): any byte stream either
// decodes into a frame or fails with one of the typed errors —
// wire.ErrUnknownVersion, wire.ErrUnknownFrameType, wire.ErrFrameTooLarge,
// wire.ErrMalformedFrame, io.EOF, or io.ErrUnexpectedEOF — and a declared
// payload length is never trusted before it is checked against both
// wire.MaxFramePayload and the bytes actually present, so hostile lengths
// (a 2^60 uvarint) neither panic nor allocate. Successful decodes must
// round-trip bit-exactly through wire.AppendFrame, the streaming decoder
// (wire.ReadFrame) must agree with the in-memory one on every input, and
// each frame type's payload — the session payloads here and the wearable
// link's in internal/syncnet — must decode or fail typed.
//
// Seeds live in testdata/fuzz/FuzzDecodeFrame; `make fuzz` runs the
// target for real.
func FuzzDecodeFrame(f *testing.F) {
	// A valid frame of every type, plus the documented failure shapes.
	f.Add(wire.AppendFrame(nil, wire.Frame{Type: wire.FramePing, Stream: 1}))
	f.Add(wire.AppendFrame(nil, wire.Frame{Type: wire.FramePong, Stream: 1}))
	f.Add(wire.AppendFrame(nil, wire.Frame{Type: wire.FrameRequest, Stream: 7, Payload: AppendRequestPayload(nil, Request{
		UserID:       "user-1",
		WearableAddr: "127.0.0.1:9000",
		VARecording:  []float64{0.25, -0.5, 1e-3},
		RNGSeed:      42,
	})}))
	f.Add(wire.AppendFrame(nil, wire.Frame{Type: wire.FrameVerdict, Stream: 3, Payload: AppendVerdictPayload(nil, wireVerdict{
		Score: 0.75, Attack: true, SyncOffset: -160, Spans: 4,
	})}))
	f.Add(wire.AppendFrame(nil, wire.Frame{Type: wire.FrameError, Stream: 9, Payload: AppendErrorPayload(nil,
		&NodeError{Node: "node2", Err: ErrOverloaded})}))
	f.Add(wire.AppendFrame(nil, wire.Frame{Type: wire.FrameChunk, Stream: 11, Payload: AppendChunkPayload(nil, wireChunk{
		Header:  true,
		Req:     Request{UserID: "user-2", WearableAddr: "127.0.0.1:9001", RNGSeed: 7},
		Samples: []float64{0.125, -0.25},
	})}))
	f.Add(wire.AppendFrame(nil, wire.Frame{Type: wire.FrameChunk, Stream: 11, Payload: AppendChunkPayload(nil, wireChunk{
		Final: true, Samples: []float64{1e-4},
	})}))
	f.Add(wire.AppendFrame(nil, wire.Frame{Type: wire.FrameVerdictEarly, Stream: 13, Payload: AppendEarlyVerdictPayload(nil, wireVerdict{
		Score: 0.9, Attack: false, SyncOffset: 320, Spans: 2,
	}, 48000)}))
	// The wearable link's frames (internal/syncnet).
	f.Add(wire.AppendFrame(nil, wire.Frame{Type: wire.FrameTrigger, Stream: 15}))
	f.Add(wire.AppendFrame(nil, wire.Frame{Type: wire.FrameRecording, Stream: 15,
		Payload: wire.AppendSamples(nil, []float64{0.5, -0.125, 3e-5})}))
	f.Add(wire.AppendFrame(nil, wire.Frame{Type: wire.FrameWearableError, Stream: 17,
		Payload: wire.AppendString(nil, "microphone busy")}))
	f.Add([]byte{})                                                  // clean EOF
	f.Add([]byte{wire.Version})                                      // truncated after version
	f.Add([]byte{0xff, 0x01})                                        // unknown version
	f.Add([]byte{wire.Version, 0x00})                                // unknown frame type (low)
	f.Add([]byte{wire.Version, 0x63})                                // unknown frame type (high)
	f.Add([]byte{wire.Version, wire.FramePing, 0x80})                // truncated stream varint
	f.Add([]byte{wire.Version, wire.FrameVerdict, 0x01, 0x05, 0xaa}) // payload shorter than declared
	// Oversized payload length: uvarint 2^60 must be rejected before any
	// allocation is sized from it.
	f.Add([]byte{wire.Version, wire.FrameRequest, 0x01,
		0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x10})
	// Overlong varint (11 continuation bytes) in the stream id.
	f.Add([]byte{wire.Version, wire.FramePing,
		0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02})
	// Two back-to-back frames: wire.DecodeFrame must report the exact boundary.
	f.Add(wire.AppendFrame(wire.AppendFrame(nil, wire.Frame{Type: wire.FramePing, Stream: 5}),
		wire.Frame{Type: wire.FramePong, Stream: 5}))

	f.Fuzz(func(t *testing.T, data []byte) {
		frame, n, err := wire.DecodeFrame(data)
		if err != nil {
			if !errors.Is(err, wire.ErrUnknownVersion) &&
				!errors.Is(err, wire.ErrUnknownFrameType) &&
				!errors.Is(err, wire.ErrFrameTooLarge) &&
				!errors.Is(err, wire.ErrMalformedFrame) &&
				!errors.Is(err, io.EOF) &&
				!errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("untyped decode error: %v", err)
			}
			// The streaming decoder may differ on which typed error it
			// reports for garbage (it cannot rewind), but it must also fail.
			if _, rerr := wire.ReadFrame(bufio.NewReader(bytes.NewReader(data))); rerr == nil {
				t.Fatalf("wire.DecodeFrame failed (%v) but wire.ReadFrame accepted the same bytes", err)
			}
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(data))
		}
		if frame.Type < wire.FrameRequest || frame.Type > wire.FrameWearableError {
			t.Fatalf("decoded out-of-range frame type %d", frame.Type)
		}
		if len(frame.Payload) > wire.MaxFramePayload {
			t.Fatalf("decoded payload of %d bytes exceeds wire.MaxFramePayload", len(frame.Payload))
		}

		// Round trip: re-encoding the decoded frame reproduces the
		// consumed bytes exactly (the encoding is canonical for the
		// canonical varint forms the encoder emits; the fuzzer finding a
		// non-canonical input that still decodes is fine as long as the
		// re-encode decodes back to the same frame).
		re := wire.AppendFrame(nil, frame)
		frame2, n2, err := wire.DecodeFrame(re)
		if err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", err)
		}
		if n2 != len(re) {
			t.Fatalf("re-encoded frame left %d trailing bytes", len(re)-n2)
		}
		if frame2.Type != frame.Type || frame2.Stream != frame.Stream || !bytes.Equal(frame2.Payload, frame.Payload) {
			t.Fatalf("round trip changed the frame: %+v vs %+v", frame, frame2)
		}

		// The streaming decoder agrees with the in-memory one.
		rframe, rerr := wire.ReadFrame(bufio.NewReader(bytes.NewReader(data)))
		if rerr != nil {
			t.Fatalf("wire.DecodeFrame accepted bytes wire.ReadFrame rejects: %v", rerr)
		}
		if rframe.Type != frame.Type || rframe.Stream != frame.Stream || !bytes.Equal(rframe.Payload, frame.Payload) {
			t.Fatalf("wire.ReadFrame decoded %+v, wire.DecodeFrame %+v", rframe, frame)
		}

		// Typed payloads must also decode or fail typed — never panic.
		switch frame.Type {
		case wire.FrameRequest:
			if _, perr := DecodeRequestPayload(frame.Payload); perr != nil && !errors.Is(perr, wire.ErrMalformedFrame) {
				t.Fatalf("untyped request payload error: %v", perr)
			}
		case wire.FrameVerdict:
			if _, perr := DecodeVerdictPayload(frame.Payload); perr != nil && !errors.Is(perr, wire.ErrMalformedFrame) {
				t.Fatalf("untyped verdict payload error: %v", perr)
			}
		case wire.FrameError:
			if _, perr := DecodeErrorPayload(frame.Payload); perr != nil && !errors.Is(perr, wire.ErrMalformedFrame) {
				t.Fatalf("untyped error payload error: %v", perr)
			}
		case wire.FrameChunk:
			if _, perr := DecodeChunkPayload(frame.Payload); perr != nil && !errors.Is(perr, wire.ErrMalformedFrame) {
				t.Fatalf("untyped chunk payload error: %v", perr)
			}
		case wire.FrameVerdictEarly:
			if _, _, perr := DecodeEarlyVerdictPayload(frame.Payload); perr != nil && !errors.Is(perr, wire.ErrMalformedFrame) {
				t.Fatalf("untyped early-verdict payload error: %v", perr)
			}
		case wire.FrameTrigger:
			if perr := syncnet.DecodeTriggerPayload(frame.Payload); perr != nil && !errors.Is(perr, wire.ErrMalformedFrame) {
				t.Fatalf("untyped trigger payload error: %v", perr)
			}
		case wire.FrameRecording:
			if _, perr := syncnet.DecodeRecordingPayload(frame.Payload); perr != nil && !errors.Is(perr, wire.ErrMalformedFrame) {
				t.Fatalf("untyped recording payload error: %v", perr)
			}
		case wire.FrameWearableError:
			if _, perr := syncnet.DecodeWearableErrorPayload(frame.Payload); perr != nil && !errors.Is(perr, wire.ErrMalformedFrame) {
				t.Fatalf("untyped wearable-error payload error: %v", perr)
			}
		}
	})
}
