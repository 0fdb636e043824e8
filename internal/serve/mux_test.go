package serve_test

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"vibguard/internal/serve"
	"vibguard/internal/wire"
)

// TestClientUnexpectedFrameFailsPending covers the client read loop's
// default branch. A muxed Client never sends pings and never speaks the
// wearable link, so a pong or a trigger arriving on its connection means
// the framing can no longer be trusted: every pending session must fail
// with ErrConnLost (even the one whose stream id the frame carries), and
// the dead client must refuse new sessions.
func TestClientUnexpectedFrameFailsPending(t *testing.T) {
	for _, typ := range []byte{wire.FramePong, wire.FrameTrigger} {
		t.Run(fmt.Sprintf("type%d", typ), func(t *testing.T) {
			cliConn, srvConn := net.Pipe()
			defer srvConn.Close()
			cl := serve.NewClient(cliConn)
			defer cl.Close()

			const sessions = 3
			req := serve.Request{UserID: "u", WearableAddr: "x", VARecording: []float64{0.1, -0.2, 0.3}}
			// The fake server answers once it has read every request, so
			// all sessions are pending when the stray frame arrives.
			srvErr := make(chan error, 1)
			go func() {
				br := bufio.NewReader(srvConn)
				var last uint64
				for i := 0; i < sessions; i++ {
					f, err := wire.ReadFrame(br)
					if err != nil {
						srvErr <- err
						return
					}
					last = f.Stream
				}
				srvErr <- wire.WriteFrame(srvConn, wire.Frame{Type: typ, Stream: last})
			}()
			errs := make(chan error, sessions)
			for i := 0; i < sessions; i++ {
				go func() {
					_, err := cl.Inspect(req)
					errs <- err
				}()
			}
			if err := <-srvErr; err != nil {
				t.Fatal(err)
			}
			for i := 0; i < sessions; i++ {
				select {
				case err := <-errs:
					if !errors.Is(err, serve.ErrConnLost) {
						t.Errorf("pending session failed with %v, want ErrConnLost", err)
					}
				case <-time.After(10 * time.Second):
					t.Fatal("pending session never resolved")
				}
			}
			if n := cl.InFlight(); n != 0 {
				t.Errorf("%d sessions still in flight", n)
			}
			if _, err := cl.Inspect(req); !errors.Is(err, serve.ErrConnLost) {
				t.Errorf("session on the dead client: %v, want ErrConnLost", err)
			}
		})
	}
}
