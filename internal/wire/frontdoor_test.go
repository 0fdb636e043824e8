package wire

import (
	"context"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// listenDoor mounts serveConn on a fresh loopback door.
func listenDoor(t *testing.T, serveConn func(net.Conn)) (*FrontDoor, string) {
	t.Helper()
	d := new(FrontDoor)
	addr, err := d.Listen("127.0.0.1:0", serveConn)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Addr(); got != addr {
		t.Fatalf("Addr() = %q, Listen returned %q", got, addr)
	}
	return d, addr
}

func dialDoor(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return conn
}

func TestFrontDoorListenOnceAndNotAfterClose(t *testing.T) {
	d, _ := listenDoor(t, func(net.Conn) {})
	if _, err := d.Listen("127.0.0.1:0", func(net.Conn) {}); err == nil || errors.Is(err, ErrClosed) {
		t.Fatalf("second Listen on a listening door = %v, want an already-listening error", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("repeated Close = %v", err)
	}
	if _, err := d.Listen("127.0.0.1:0", func(net.Conn) {}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Listen after Close = %v, want ErrClosed", err)
	}
	var never FrontDoor
	_ = never.Close()
	if _, err := never.Listen("127.0.0.1:0", func(net.Conn) {}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Listen on a door closed before listening = %v, want ErrClosed", err)
	}
	if err := never.Drain(context.Background()); err != nil {
		t.Fatalf("Drain of a door that never listened = %v", err)
	}
}

func TestFrontDoorTakesNoConnectionAfterClose(t *testing.T) {
	var served atomic.Int32
	d, addr := listenDoor(t, func(net.Conn) { served.Add(1) })
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		// The closed listener refuses dials; should one connect anyway,
		// it must end without reaching a handler.
		_ = conn.SetReadDeadline(time.Now().Add(time.Second))
		_, _ = conn.Read(make([]byte, 1))
		_ = conn.Close()
	}
	time.Sleep(20 * time.Millisecond)
	if n := served.Load(); n != 0 {
		t.Fatalf("serveConn ran %d times after Close", n)
	}
}

// TestFrontDoorDrainFlushesTheLastReply pins the graceful half of the
// door: the half-close ends the handler's read side only, so a reply it
// writes after seeing EOF still reaches the peer, and Drain returns only
// once the handler has.
func TestFrontDoorDrainFlushesTheLastReply(t *testing.T) {
	sawEOF, release := make(chan struct{}), make(chan struct{})
	d, addr := listenDoor(t, func(conn net.Conn) {
		if _, err := conn.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
			t.Errorf("handler read after the half-close = %v, want io.EOF", err)
		}
		close(sawEOF)
		<-release
		_, _ = conn.Write([]byte("reply"))
	})
	conn := dialDoor(t, addr)
	// The connection must be tracked before the drain starts.
	waitTracked(t, d)

	drained := make(chan error, 1)
	go func() { drained <- d.Drain(context.Background()) }()
	<-sawEOF
	select {
	case err := <-drained:
		t.Fatalf("Drain returned %v while its handler was still running", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	got, err := io.ReadAll(conn)
	if err != nil || string(got) != "reply" {
		t.Fatalf("peer read %q, %v; want the reply then EOF", got, err)
	}
	select {
	case err := <-drained:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Drain blocked after its handler returned")
	}
}

func TestFrontDoorDrainDeadline(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	d, addr := listenDoor(t, func(net.Conn) {
		close(started)
		<-release // ignores the half-close
	})
	dialDoor(t, addr)
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := d.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain past its deadline = %v, want context.DeadlineExceeded", err)
	}
	close(release)
	if err := d.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestFrontDoorKillResets(t *testing.T) {
	d, addr := listenDoor(t, func(conn net.Conn) {
		_, _ = conn.Read(make([]byte, 1))
	})
	conn := dialDoor(t, addr)
	waitTracked(t, d)
	d.Kill()
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	_, err := conn.Read(make([]byte, 1))
	if !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("peer read after Kill = %v, want a connection reset", err)
	}
	if err := d.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// waitTracked waits until the door tracks one connection.
func waitTracked(t *testing.T, d *FrontDoor) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		d.mu.Lock()
		n := len(d.conns)
		d.mu.Unlock()
		if n == 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("door tracks %d connections, want 1", n)
		}
		time.Sleep(time.Millisecond)
	}
}
