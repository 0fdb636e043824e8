package serve

import (
	"math"
	"testing"

	"vibguard/internal/wire"
)

// Wire-protocol benchmarks: one "session" is a request (wearable address,
// seed, a 2-second 16 kHz VA recording) plus its verdict response,
// encoded AND decoded in the framed binary codec — the full serialization
// cost of one detection round trip. bytes/session reports the on-wire
// size of the pair.

// benchSamples is a 2 s, 16 kHz recording — a typical short command.
const benchSamples = 32000

func benchRecording() []float64 {
	rec := make([]float64, benchSamples)
	for i := range rec {
		rec[i] = math.Sin(float64(i) / 37)
	}
	return rec
}

func BenchmarkBinarySessionRoundTrip(b *testing.B) {
	rec := benchRecording()
	req := Request{UserID: "user-1", WearableAddr: "127.0.0.1:7700", VARecording: rec, RNGSeed: 42}
	verdict := wireVerdict{Score: 0.75, Attack: false, SyncOffset: -120, Spans: 4}
	var bytesPerSession int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reqFrame := wire.AppendFrame(nil, wire.Frame{Type: wire.FrameRequest, Stream: 1, Payload: AppendRequestPayload(nil, req)})
		respFrame := wire.AppendFrame(nil, wire.Frame{Type: wire.FrameVerdict, Stream: 1, Payload: AppendVerdictPayload(nil, verdict)})
		f1, _, err := wire.DecodeFrame(reqFrame)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := DecodeRequestPayload(f1.Payload); err != nil {
			b.Fatal(err)
		}
		f2, _, err := wire.DecodeFrame(respFrame)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := DecodeVerdictPayload(f2.Payload); err != nil {
			b.Fatal(err)
		}
		bytesPerSession = len(reqFrame) + len(respFrame)
	}
	b.ReportMetric(float64(bytesPerSession), "bytes/session")
}

// The error path: a typed shed crossing the wire.

func BenchmarkBinaryErrorRoundTrip(b *testing.B) {
	src := &NodeError{Node: "node1", Err: ErrOverloaded}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame := wire.AppendFrame(nil, wire.Frame{Type: wire.FrameError, Stream: 1, Payload: AppendErrorPayload(nil, src)})
		f, _, err := wire.DecodeFrame(frame)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := DecodeErrorPayload(f.Payload); err != nil {
			b.Fatal(err)
		}
	}
}
