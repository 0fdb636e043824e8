package serve_test

import (
	"context"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"vibguard/internal/core"
	"vibguard/internal/profile"
	"vibguard/internal/serve"
)

// The streamed-session suite: SubmitStream in-process, the chunked wire
// protocol over real TCP, early-exit propagation, and concurrent streams
// multiplexing one connection — all seeded and race-clean.

const streamChunk = 1600 // 100 ms of 16 kHz audio

// chunksOf slices a recording into a closed channel of chunk copies.
func chunksOf(rec []float64, chunk int) <-chan []float64 {
	ch := make(chan []float64, len(rec)/chunk+2)
	for lo := 0; lo < len(rec); lo += chunk {
		hi := lo + chunk
		if hi > len(rec) {
			hi = len(rec)
		}
		ch <- rec[lo:hi]
	}
	close(ch)
	return ch
}

// TestSubmitStreamMatchesSubmit pins the in-process contract: a streamed
// session with early exit disabled returns a verdict bit-identical to
// Submit with the same seed, and a streamed session with the default
// config never flips the verdict.
func TestSubmitStreamMatchesSubmit(t *testing.T) {
	sc := scenarioFor(t)
	legit := newAgent(t, sc.legitWear)
	attackAgent := newAgent(t, sc.attackWear)

	for _, tc := range []struct {
		name       string
		va, wear   []float64
		agent      string
		wantAttack bool
	}{
		{"legit", sc.legitVA, sc.legitWear, legit.Addr(), false},
		{"attack", sc.attackVA, sc.attackWear, attackAgent.Addr(), true},
	} {
		srv := newServer(t, serve.Config{Workers: 2, Seed: serveSeed})
		req := serve.Request{UserID: "u", WearableAddr: tc.agent, RNGSeed: 42}
		batchReq := req
		batchReq.VARecording = tc.va
		want, err := srv.Submit(context.Background(), batchReq)
		if err != nil {
			t.Fatalf("%s: batch submit: %v", tc.name, err)
		}
		if want.Attack != tc.wantAttack {
			t.Fatalf("%s: batch verdict attack=%v, want %v", tc.name, want.Attack, tc.wantAttack)
		}
		got, err := srv.SubmitStream(context.Background(), req, chunksOf(tc.va, streamChunk))
		if err != nil {
			t.Fatalf("%s: stream submit: %v", tc.name, err)
		}
		if got.Attack != want.Attack {
			t.Errorf("%s: streamed verdict attack=%v flips batch attack=%v", tc.name, got.Attack, want.Attack)
		}
		if !got.Early && math.Float64bits(got.Score) != math.Float64bits(want.Score) {
			t.Errorf("%s: full-run streamed score %v != batch score %v", tc.name, got.Score, want.Score)
		}
		if got.Early && got.Consumed >= len(tc.va) {
			t.Errorf("%s: early verdict consumed all %d samples", tc.name, got.Consumed)
		}
	}
}

// TestSubmitStreamValidation pins the request contract.
func TestSubmitStreamValidation(t *testing.T) {
	srv := newServer(t, serve.Config{Workers: 1, Seed: serveSeed})
	sc := scenarioFor(t)
	if _, err := srv.SubmitStream(context.Background(),
		serve.Request{WearableAddr: "x", VARecording: sc.legitVA}, chunksOf(sc.legitVA, streamChunk)); err == nil {
		t.Fatal("request-borne audio accepted on a streamed session")
	}
	if _, err := srv.SubmitStream(context.Background(), serve.Request{WearableAddr: "x"}, nil); err == nil {
		t.Fatal("nil chunk channel accepted")
	}
	if _, err := srv.SubmitStream(context.Background(), serve.Request{}, chunksOf(sc.legitVA, streamChunk)); err == nil {
		t.Fatal("missing wearable address accepted")
	}
}

// TestStreamOverWire drives streamed sessions through the real TCP
// front-end: OpenStream/Send/CloseSend/Wait against a listening server,
// with early-exit verdicts crossing the wire as FrameVerdictEarly.
func TestStreamOverWire(t *testing.T) {
	sc := scenarioFor(t)
	legit := newAgent(t, sc.legitWear)
	srv := newServer(t, serve.Config{Workers: 2, Seed: serveSeed})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := serve.DialServer(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// The same seeded session twice: once as one request frame, once
	// chunked over the stream protocol (InspectStream chunks VARecording).
	req := serve.Request{UserID: "wire-user", WearableAddr: legit.Addr(),
		RNGSeed: 42, VARecording: sc.legitVA}
	want, err := cl.Inspect(req)
	if err != nil {
		t.Fatal(err)
	}

	v, err := cl.InspectStream(req, streamChunk)
	if err != nil {
		t.Fatal(err)
	}
	if v.Attack != want.Attack {
		t.Errorf("streamed wire verdict attack=%v flips batch attack=%v", v.Attack, want.Attack)
	}
	if v.Early && v.Consumed == 0 {
		t.Error("early wire verdict carries no consumed count")
	}
	if !v.Early && math.Float64bits(v.Score) != math.Float64bits(want.Score) {
		t.Errorf("full-run wire score %v != batch score %v", v.Score, want.Score)
	}
}

// TestStreamOverWireConcurrent multiplexes many concurrent streamed
// sessions over one connection, interleaved with batch requests, and
// requires every session to resolve with the right verdict.
func TestStreamOverWireConcurrent(t *testing.T) {
	sc := scenarioFor(t)
	legit := newAgent(t, sc.legitWear)
	attackAgent := newAgent(t, sc.attackWear)
	srv := newServer(t, serve.Config{Workers: 4, QueueDepth: 64, Seed: serveSeed})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := serve.DialServer(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const sessions = 16
	var wg sync.WaitGroup
	errs := make([]error, sessions)
	flips := make([]bool, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			attack := i%2 == 1
			va, agent := sc.legitVA, legit.Addr()
			if attack {
				va, agent = sc.attackVA, attackAgent.Addr()
			}
			req := serve.Request{UserID: "u", WearableAddr: agent,
				RNGSeed: int64(1000 + i), VARecording: va}
			if i%4 == 0 {
				// Interleave plain requests on the same connection.
				bv, err := cl.Inspect(req)
				if err != nil {
					errs[i] = err
					return
				}
				flips[i] = bv.Attack != attack
				return
			}
			sv, err := cl.InspectStream(req, streamChunk)
			if err != nil {
				errs[i] = err
				return
			}
			flips[i] = sv.Attack != attack
		}(i)
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Errorf("session %d: %v", i, errs[i])
		}
		if flips[i] {
			t.Errorf("session %d: wrong verdict", i)
		}
	}
}

// TestStreamUnsupportedPeer pins the rejection when a streamed session
// reaches a mux serving only the batch protocol (nil stream handler): the
// peer must answer the chunk with an error frame carrying
// ErrStreamingUnsupported's message rather than killing the connection,
// and the same connection must keep serving batch requests afterwards.
func TestStreamUnsupportedPeer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				serve.ServeMuxConnStream(conn, func(ctx context.Context, req serve.Request) (*core.Verdict, error) {
					return &core.Verdict{Score: 0.9}, nil
				}, nil)
			}()
		}
	}()

	cl, err := serve.DialServer(ln.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	_, err = cl.InspectStream(serve.Request{UserID: "u", WearableAddr: "x"}, streamChunk)
	if err == nil {
		t.Fatal("streamed session accepted by a batch-only peer")
	}
	if !strings.Contains(err.Error(), "streamed sessions") {
		t.Fatalf("unsupported-peer error = %v, want ErrStreamingUnsupported's message", err)
	}
	// The connection must have survived the rejection.
	v, err := cl.Inspect(serve.Request{UserID: "u", WearableAddr: "x", VARecording: []float64{1}})
	if err != nil {
		t.Fatalf("batch request after a rejected stream: %v", err)
	}
	if v.Score != 0.9 {
		t.Fatalf("batch verdict score = %v after a rejected stream", v.Score)
	}
}

// TestStreamedSessionCalibrated pins the profile layer on the streamed
// single-wearable path: with early exit off, a legitimate streamed
// session returns the batch session's score bits and verdict, and, like
// the batch session, moves the user's calibration sample count.
func TestStreamedSessionCalibrated(t *testing.T) {
	sc := scenarioFor(t)
	agent := newAgent(t, sc.legitWear)
	store := profile.NewStore(profile.Config{})
	srv := newServer(t, serve.Config{Workers: 1, Seed: serveSeed, Profiles: store,
		Stream: core.StreamConfig{DisableEarlyExit: true}})
	req := serve.Request{UserID: "carol", WearableAddr: agent.Addr(), RNGSeed: serveSeed + 20}
	batchReq := req
	batchReq.VARecording = sc.legitVA
	ctx, cancel := contextWithTimeout(20 * time.Second)
	defer cancel()
	want, err := srv.Submit(ctx, batchReq)
	if err != nil {
		t.Fatal(err)
	}
	if p, _ := store.Lookup("carol"); p.Samples != 1 {
		t.Fatalf("profile samples %d after the batch session, want 1", p.Samples)
	}
	got, err := srv.SubmitStream(ctx, req, chunksOf(sc.legitVA, streamChunk))
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got.Score) != math.Float64bits(want.Score) || got.Attack != want.Attack || got.Attack {
		t.Errorf("streamed %+v, batch %+v", got, want)
	}
	if p, _ := store.Lookup("carol"); p.Samples != 2 {
		t.Errorf("profile samples %d after the streamed session, want 2", p.Samples)
	}
}
