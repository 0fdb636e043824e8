package syncnet

import (
	"bufio"
	"errors"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"vibguard/internal/wire"
)

// hostileAgent is a raw wearable that answers every trigger on its first
// badConns connections with bad(trigger), and honestly after that.
func hostileAgent(t *testing.T, badConns int64, bad func(trigger wire.Frame) []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	var accepted atomic.Int64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			hostile := accepted.Add(1) <= badConns
			go func() {
				defer func() { _ = conn.Close() }()
				br := bufio.NewReader(conn)
				for {
					f, err := wire.ReadFrame(br)
					if err != nil {
						return
					}
					out := wire.AppendFrame(nil, wire.Frame{Type: wire.FrameRecording, Stream: f.Stream,
						Payload: wire.AppendSamples(nil, []float64{0.5, -0.25})})
					if hostile {
						out = bad(f)
					}
					if _, err := conn.Write(out); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestVAClientRejectsHostileReplies pins the VA side of the wearable link
// against a peer that answers a trigger with a 2^60-byte length, a reply
// on the wrong stream, or an unknown frame type: each is a typed error,
// none allocates from the hostile length, and ReliableClient drops the
// poisoned connection and redials on its next attempt.
func TestVAClientRejectsHostileReplies(t *testing.T) {
	cases := []struct {
		name string
		bad  func(trigger wire.Frame) []byte
		want error
	}{
		{"length 2^60", func(tr wire.Frame) []byte {
			out := append([]byte{wire.Version, wire.FrameRecording}, byte(tr.Stream))
			return append(out, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x10)
		}, wire.ErrFrameTooLarge},
		{"wrong stream", func(tr wire.Frame) []byte {
			return wire.AppendFrame(nil, wire.Frame{Type: wire.FrameRecording, Stream: tr.Stream + 1,
				Payload: wire.AppendSamples(nil, []float64{1})})
		}, wire.ErrMalformedFrame},
		{"unknown frame type", func(tr wire.Frame) []byte {
			return []byte{wire.Version, 0x63, byte(tr.Stream), 0}
		}, wire.ErrUnknownFrameType},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Two hostile connections: one for the bare client, one for the
			// reliable client's first attempt.
			addr := hostileAgent(t, 2, tc.bad)
			client, err := DialWearable(addr, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = client.Close() }()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err = client.RequestRecording(2 * time.Second)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			var wearErr *WearableError
			if errors.As(err, &wearErr) {
				t.Fatalf("hostile reply surfaced as a wearable error: %v", err)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
				t.Errorf("hostile reply allocated %d bytes", grew)
			}

			rc, err := NewReliableClient(addr, WithRetryPolicy(fastPolicy(2)))
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = rc.Close() }()
			got, err := rc.RequestRecording()
			if err != nil {
				t.Fatalf("second attempt on a fresh connection failed: %v", err)
			}
			if len(got) != 2 || got[0] != 0.5 || got[1] != -0.25 {
				t.Errorf("recording = %v", got)
			}
			if rc.Attempts() != 2 || rc.Redials() != 2 {
				t.Errorf("attempts=%d redials=%d, want 2/2 (the poisoned connection must be dropped)",
					rc.Attempts(), rc.Redials())
			}
		})
	}
}

// TestAgentAnswersUnexpectedFrameWithWearableError pins the agent side:
// a frame that is not a well-formed trigger is reported and answered
// with a wearable error on its stream, and the connection stays usable.
func TestAgentAnswersUnexpectedFrameWithWearableError(t *testing.T) {
	agent, err := NewWearableAgent("127.0.0.1:0", func(uint64) ([]float64, error) { return []float64{3}, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = agent.Close() }()
	conn, err := net.Dial("tcp", agent.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	br := bufio.NewReader(conn)
	for _, f := range []wire.Frame{
		{Type: wire.FrameRecording, Stream: 4},
		{Type: wire.FrameTrigger, Stream: 5, Payload: []byte{1}},
	} {
		if err := wire.WriteFrame(conn, f); err != nil {
			t.Fatal(err)
		}
		reply, err := wire.ReadFrame(br)
		if err != nil {
			t.Fatal(err)
		}
		if reply.Type != wire.FrameWearableError || reply.Stream != f.Stream {
			t.Fatalf("reply %d on stream %d, want a wearable error on stream %d", reply.Type, reply.Stream, f.Stream)
		}
		if _, err := DecodeWearableErrorPayload(reply.Payload); err != nil {
			t.Fatal(err)
		}
	}
	if n := agent.ConnErrors(); n != 2 {
		t.Errorf("ConnErrors = %d, want 2", n)
	}
	if err := wire.WriteFrame(conn, wire.Frame{Type: wire.FrameTrigger, Stream: 6}); err != nil {
		t.Fatal(err)
	}
	if reply, err := wire.ReadFrame(br); err != nil || reply.Type != wire.FrameRecording {
		t.Fatalf("trigger after bad frames: %+v, %v", reply, err)
	}
}

// TestAgentCloseWithOpenClient pins that Close does not wait for VA
// clients to hang up: serve workers keep one client per wearable open
// across sessions, so a wearable shutting down under a live node must
// still return, and the connections it ends are not per-connection
// failures.
func TestAgentCloseWithOpenClient(t *testing.T) {
	agent, err := NewWearableAgent("127.0.0.1:0", func(uint64) ([]float64, error) { return []float64{1}, nil })
	if err != nil {
		t.Fatal(err)
	}
	rc, err := NewReliableClient(agent.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = rc.Close() }()
	if _, err := rc.RequestRecording(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- agent.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close blocked while a client held its connection open")
	}
	if n := agent.ConnErrors(); n != 0 {
		t.Errorf("Close counted %d connection errors (last: %v)", n, agent.LastConnError())
	}
}

// TestAgentCloseFinishesRecordingInFlight pins the other half of Close: a
// trigger already being recorded still gets its reply.
func TestAgentCloseFinishesRecordingInFlight(t *testing.T) {
	recording, release := make(chan struct{}), make(chan struct{})
	agent, err := NewWearableAgent("127.0.0.1:0", func(uint64) ([]float64, error) {
		close(recording)
		<-release
		return []float64{7}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	client, err := DialWearable(agent.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = client.Close() }()
	type result struct {
		rec []float64
		err error
	}
	got := make(chan result, 1)
	go func() {
		rec, err := client.RequestRecording(5 * time.Second)
		got <- result{rec, err}
	}()
	<-recording
	closed := make(chan error, 1)
	go func() { closed <- agent.Close() }()
	time.Sleep(20 * time.Millisecond) // let Close reach its wait
	close(release)
	res := <-got
	if res.err != nil || len(res.rec) != 1 || res.rec[0] != 7 {
		t.Fatalf("in-flight recording = %v, %v; want [7]", res.rec, res.err)
	}
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close blocked after the in-flight reply")
	}
	if n := agent.ConnErrors(); n != 0 {
		t.Errorf("Close counted %d connection errors (last: %v)", n, agent.LastConnError())
	}
}
