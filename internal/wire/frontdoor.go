package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// ErrClosed is returned by Listen on a FrontDoor that was closed.
var ErrClosed = errors.New("wire: front door closed")

// FrontDoor is the one TCP listener every hop mounts (the serve node, the
// router, the wearable agent): it accepts connections, hands each to its
// own serveConn goroutine, tracks them, and ends them either gracefully
// (Drain) or abruptly (Kill). The zero value is ready to use; a door
// listens at most once.
type FrontDoor struct {
	mu         sync.Mutex
	ln         net.Listener
	closed     bool
	conns      map[net.Conn]struct{}
	acceptDone chan struct{}
	connWG     sync.WaitGroup
}

// Listen starts accepting on addr and returns the resolved address. Each
// accepted connection runs serveConn on its own goroutine and is closed
// once serveConn returns. It fails with ErrClosed after Close, and with an
// error on a door already listening.
func (d *FrontDoor) Listen(addr string, serveConn func(net.Conn)) (string, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return "", ErrClosed
	}
	if d.ln != nil {
		return "", fmt.Errorf("wire: already listening on %s", d.ln.Addr())
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	d.ln, d.conns, d.acceptDone = ln, make(map[net.Conn]struct{}), make(chan struct{})
	go d.accept(ln, serveConn)
	return ln.Addr().String(), nil
}

// Addr returns the listen address ("" before Listen).
func (d *FrontDoor) Addr() string {
	d.mu.Lock()
	ln := d.ln
	d.mu.Unlock()
	if ln == nil {
		return ""
	}
	return ln.Addr().String()
}

func (d *FrontDoor) accept(ln net.Listener, serveConn func(net.Conn)) {
	defer close(d.acceptDone)
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		d.mu.Lock()
		if d.closed {
			d.mu.Unlock()
			_ = conn.Close()
			return
		}
		d.conns[conn] = struct{}{}
		d.connWG.Add(1)
		d.mu.Unlock()
		go func() {
			serveConn(conn)
			d.mu.Lock()
			delete(d.conns, conn)
			d.mu.Unlock()
			_ = conn.Close()
			d.connWG.Done()
		}()
	}
}

// Close stops accepting: once it returns, no connection is taken, and
// Listen returns ErrClosed. Tracked connections keep running. Repeated
// calls return nil.
func (d *FrontDoor) Close() error {
	d.mu.Lock()
	ln, wasClosed := d.ln, d.closed
	d.closed = true
	d.mu.Unlock()
	if wasClosed || ln == nil {
		return nil
	}
	err := ln.Close()
	<-d.acceptDone
	return err
}

// Drain closes the door, half-closes every tracked connection (its read
// side ends, so a handler still flushes its last replies before it sees
// EOF) and waits for every handler to return. It returns ctx.Err() if a
// handler outlives ctx.
func (d *FrontDoor) Drain(ctx context.Context) error {
	_ = d.Close()
	d.mu.Lock()
	for conn := range d.conns {
		if tc, ok := conn.(*net.TCPConn); ok {
			_ = tc.CloseRead()
		} else {
			// No half-close: a read deadline in the past ends the reads
			// the same way and leaves the writes open.
			_ = conn.SetReadDeadline(time.Now())
		}
	}
	d.mu.Unlock()
	done := make(chan struct{})
	go func() {
		d.connWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Kill closes the door and every tracked connection hard, with an RST and
// no final replies: the peers see a dead host.
func (d *FrontDoor) Kill() {
	_ = d.Close()
	d.mu.Lock()
	defer d.mu.Unlock()
	for conn := range d.conns {
		if tc, ok := conn.(*net.TCPConn); ok {
			_ = tc.SetLinger(0)
		}
		_ = conn.Close()
	}
}
