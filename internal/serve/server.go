package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"vibguard/internal/core"
	"vibguard/internal/profile"
	"vibguard/internal/syncnet"
)

// Server lifecycle states.
const (
	stateRunning = iota
	stateDraining
	stateStopped
)

// session is one admitted detection session moving through the queue.
type session struct {
	id       uint64
	req      Request
	ctx      context.Context
	enqueued time.Time
	// chunks is non-nil for a streamed session: VA audio arrives on it
	// instead of req.VARecording, and the worker runs the streaming
	// pipeline (early exit included) until the channel closes.
	chunks <-chan []float64
	// done receives the single terminal result. It is buffered so a
	// worker finishing an abandoned session never blocks.
	done chan sessionResult
}

type sessionResult struct {
	verdict *core.Verdict
	err     error
}

// Server is the session-oriented detection service: a bounded admission
// queue in front of a fixed worker pool, each worker owning a private
// core.Defense and a per-address cache of hardened wearable clients. See
// the package comment for the architecture.
type Server struct {
	cfg   Config
	queue chan *session

	nextID atomic.Uint64

	mu       sync.RWMutex
	state    int
	listener net.Listener
	conns    map[net.Conn]struct{}

	workerWG sync.WaitGroup
	acceptWG sync.WaitGroup
	connWG   sync.WaitGroup
	// drained closes when a Shutdown completes, so concurrent Shutdown
	// calls converge.
	drained chan struct{}
}

// NewServer builds and starts a server: the worker pool is live and
// Submit accepts sessions immediately.
func NewServer(cfg Config) (*Server, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		queue:   make(chan *session, cfg.QueueDepth),
		conns:   make(map[net.Conn]struct{}),
		drained: make(chan struct{}),
	}
	gaugeWorkers.Set(float64(cfg.Workers))
	s.workerWG.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s, nil
}

// Workers returns the worker-pool size.
func (s *Server) Workers() int { return s.cfg.Workers }

// QueueDepth returns the admission-queue capacity.
func (s *Server) QueueDepth() int { return s.cfg.QueueDepth }

// Submit admits one session and blocks until its verdict (or typed
// failure) is ready. Admission is non-blocking: a full queue returns
// ErrOverloaded immediately and a draining server returns ErrDraining.
// The session inherits ctx, bounded by Config.SessionTimeout; if the
// deadline expires first, Submit returns ErrSessionTimeout and the worker
// abandons the session.
func (s *Server) Submit(ctx context.Context, req Request) (*core.Verdict, error) {
	if len(req.VARecording) == 0 {
		return nil, fmt.Errorf("serve: session needs a VA recording")
	}
	return s.submitSession(ctx, req, nil)
}

// SubmitStream admits one streamed session: the request carries the
// session fields (its VARecording must be empty), VA audio arrives on
// chunks, and the call blocks until the verdict — which the streaming
// pipeline may reach before chunks closes (Verdict.Early). Admission,
// shedding, draining, and timeout semantics match Submit. It satisfies
// StreamSessionHandler, so it is the front door's chunk-frame handler.
func (s *Server) SubmitStream(ctx context.Context, req Request, chunks <-chan []float64) (*core.Verdict, error) {
	if len(req.VARecording) != 0 {
		return nil, fmt.Errorf("serve: streamed session carries audio in chunks, not the request")
	}
	if chunks == nil {
		return nil, fmt.Errorf("serve: streamed session needs a chunk channel")
	}
	return s.submitSession(ctx, req, chunks)
}

// submitSession is the shared admission + wait path of Submit and
// SubmitStream.
func (s *Server) submitSession(ctx context.Context, req Request, chunks <-chan []float64) (*core.Verdict, error) {
	if req.WearableAddr == "" {
		return nil, fmt.Errorf("serve: session needs a wearable address")
	}
	// Profile-backed sessions (any WearableAddrs) are keyed by user
	// identity: fusion and calibration are per-user, and routing a
	// multi-wearable session by its first address would scatter the user's
	// state across nodes.
	if len(req.WearableAddrs) > 0 && req.UserID == "" {
		return nil, ErrUserIDRequired
	}
	sctx, cancel := context.WithTimeout(ctx, s.cfg.SessionTimeout)
	defer cancel()
	sess := &session{
		id:       s.nextID.Add(1),
		req:      req,
		ctx:      sctx,
		enqueued: time.Now(),
		chunks:   chunks,
		done:     make(chan sessionResult, 1),
	}

	// Admission. The state check and the enqueue share the read lock so a
	// session can never slip into the queue after Shutdown's drain pass:
	// Shutdown flips the state under the write lock before draining.
	s.mu.RLock()
	if s.state != stateRunning {
		s.mu.RUnlock()
		metSessionsDrainRej.Inc()
		return nil, ErrDraining
	}
	// The gauge moves before the enqueue so a worker's decrement can
	// never be observed ahead of the matching increment.
	gaugeQueueDepth.Add(1)
	select {
	case s.queue <- sess:
		s.mu.RUnlock()
		metSessionsAccepted.Inc()
	default:
		s.mu.RUnlock()
		gaugeQueueDepth.Add(-1)
		metSessionsShed.Inc()
		return nil, ErrOverloaded
	}

	select {
	case res := <-sess.done:
		return res.verdict, res.err
	case <-sctx.Done():
		// The result may have raced the deadline; prefer it.
		select {
		case res := <-sess.done:
			return res.verdict, res.err
		default:
		}
		if errors.Is(sctx.Err(), context.DeadlineExceeded) {
			return nil, fmt.Errorf("%w (limit %v)", ErrSessionTimeout, s.cfg.SessionTimeout)
		}
		return nil, sctx.Err()
	}
}

// worker owns one private Defense, a per-address client cache, and (when
// the profile layer is on) a private LRU of effective per-user
// thresholds, and drains the admission queue until it closes.
func (s *Server) worker() {
	defer s.workerWG.Done()
	defense, defErr := s.cfg.NewDefense()
	clients := make(map[string]*syncnet.ReliableClient)
	var cache *profile.LRU
	if s.cfg.Profiles != nil {
		cache = profile.NewLRU(s.cfg.ProfileCacheSize)
	}
	defer func() {
		for _, c := range clients {
			_ = c.Close()
		}
	}()
	for sess := range s.queue {
		gaugeQueueDepth.Add(-1)
		histQueueWait.Observe(time.Since(sess.enqueued).Seconds())
		if defErr != nil {
			// The factory was probed at construction, so this is a
			// transient resource failure; fail the session with it.
			s.finish(sess, nil, fmt.Errorf("serve: defense factory: %w", defErr))
			continue
		}
		s.process(defense, clients, cache, sess)
	}
}

// clientFor returns the worker's cached hardened client for addr,
// dialing one on first use.
func (s *Server) clientFor(clients map[string]*syncnet.ReliableClient, addr string) (*syncnet.ReliableClient, error) {
	if client, ok := clients[addr]; ok {
		return client, nil
	}
	client, err := syncnet.NewReliableClient(addr,
		syncnet.WithDialFunc(s.cfg.Dial),
		syncnet.WithRetryPolicy(s.cfg.RetryPolicy),
		syncnet.WithTimeouts(s.cfg.DialTimeout, s.cfg.RequestTimeout))
	if err != nil {
		return nil, err
	}
	clients[addr] = client
	return client, nil
}

// effectiveThreshold resolves the session's decision threshold: the
// defense's configured threshold, shifted by the user's calibrated offset
// when the profile layer is on and the session carries a user identity.
// The worker's LRU answers known users without touching the shared store.
func (s *Server) effectiveThreshold(defense *core.Defense, cache *profile.LRU, userID string) (float64, bool) {
	if cache == nil || userID == "" {
		return defense.Threshold(), false
	}
	if thr, ok := cache.Get(userID); ok {
		return thr, true
	}
	off, _ := s.cfg.Profiles.Offset(userID)
	thr := defense.Threshold() + off
	cache.Put(userID, thr)
	return thr, true
}

// process runs one session end to end: deadline check, wearable fetch
// through the cached hardened clients, then the full Inspect pipeline.
// Every session has the same shape: its devices are the primary wearable
// plus WearableAddrs, duplicates removed, and all the recordings not
// streamed are scored in one InspectDevices call, recording j under
// deviceSeed(seed, j). A streamed session first runs the primary (the
// first device fetched) through the streaming pipeline; an early exit
// decides the session on the primary alone, and a stream that runs to the
// end leaves the extras to the InspectDevices call on the buffered audio.
func (s *Server) process(defense *core.Defense, clients map[string]*syncnet.ReliableClient, cache *profile.LRU, sess *session) {
	if err := sess.ctx.Err(); err != nil {
		s.finish(sess, nil, sessionCtxError(err))
		return
	}
	seed := sess.req.RNGSeed
	if seed == 0 {
		seed = SessionSeed(s.cfg.Seed, sess.id)
	}
	addrs := append([]string{sess.req.WearableAddr}, sess.req.WearableAddrs...)
	seen := make(map[string]bool, len(addrs))
	devices := make([]core.DeviceVerdict, 0, len(addrs))
	var recordings [][]float64
	var fetched []int // the device of each recording
	for _, addr := range addrs {
		if addr == "" || seen[addr] {
			continue
		}
		seen[addr] = true
		client, err := s.clientFor(clients, addr)
		if err != nil {
			devices = append(devices, core.DeviceVerdict{Addr: addr, Err: err})
			continue
		}
		wear, err := client.RequestRecordingContext(sess.ctx)
		if err != nil {
			// A session-level deadline fails the whole session; a
			// device-level fetch failure just costs that device its vote.
			if ctxErr := sess.ctx.Err(); ctxErr != nil {
				s.finish(sess, nil, fmt.Errorf("%w (fetch %s: %v)", sessionCtxError(ctxErr), addr, err))
				return
			}
			devices = append(devices, core.DeviceVerdict{Addr: addr, Err: err})
			continue
		}
		fetched = append(fetched, len(devices))
		devices = append(devices, core.DeviceVerdict{Addr: addr})
		recordings = append(recordings, wear)
	}
	va, first := sess.req.VARecording, 0
	if sess.chunks != nil && len(recordings) > 0 {
		primary := &devices[fetched[0]]
		var err error
		if va, err = s.streamPrimary(defense, sess, recordings[0], seed, primary, len(recordings) > 1); err != nil {
			s.finish(sess, nil, err)
			return
		}
		first = 1
		if primary.Verdict != nil && primary.Verdict.Early {
			// The extras' full-recording scores could shift a verdict the
			// early exit already committed, so they stay unscored.
			first = len(recordings)
		}
	}
	if first < len(recordings) {
		rngs := make([]*rand.Rand, len(recordings)-first)
		for j := range rngs {
			rngs[j] = rand.New(rand.NewSource(deviceSeed(seed, uint64(first+j))))
		}
		verdicts, errs := defense.InspectDevices(va, recordings[first:], rngs)
		for j, i := range fetched[first:] {
			devices[i].Verdict, devices[i].Err = verdicts[j], errs[j]
		}
	}
	s.decide(defense, cache, sess, devices)
}

// streamPrimary feeds the session's VA chunks through the streaming
// pipeline against the primary's recording, under deviceSeed(seed, 0),
// and sets the primary's verdict (an early exit's, or the batch
// fallback's) or error. It returns the VA audio, buffered only when keep
// is set, and a session-level failure: an expired deadline, even
// mid-stream, or a pipeline that rejects the stream.
func (s *Server) streamPrimary(defense *core.Defense, sess *session, wear []float64, seed int64, primary *core.DeviceVerdict, keep bool) ([]float64, error) {
	si, err := defense.NewStreamInspector(s.cfg.Stream, deviceSeed(seed, 0))
	if err != nil {
		return nil, err
	}
	if err := si.FeedWearable(wear); err != nil {
		return nil, err
	}
	var va []float64
	for {
		select {
		case <-sess.ctx.Done():
			return nil, sessionCtxError(sess.ctx.Err())
		case chunk, ok := <-sess.chunks:
			if !ok {
				primary.Verdict, primary.Err = si.Finish()
				return va, nil
			}
			if keep {
				va = append(va, chunk...)
			}
			v, err := si.Feed(chunk)
			if err != nil {
				return nil, err
			}
			if v != nil {
				metStreamSessionsEarly.Inc()
				primary.Verdict = v
				return va, nil
			}
		}
	}
}

// decide ends every session that reached scoring: the per-device verdicts
// fuse at the session's effective threshold (with one device, that
// device's verdict re-decided at it), and a calibrated session feeds the
// profile layer. A session without WearableAddrs keeps the
// single-wearable contract: its device's error surfaces bare, not wrapped
// in core.ErrNoQuorum, and it records no fusion.devices observation.
func (s *Server) decide(defense *core.Defense, cache *profile.LRU, sess *session, devices []core.DeviceVerdict) {
	thr, calibrated := s.effectiveThreshold(defense, cache, sess.req.UserID)
	v, contributing, err := core.FuseVerdicts(devices, thr)
	switch {
	case len(sess.req.WearableAddrs) == 0:
		if devices[0].Err != nil {
			err = devices[0].Err
		}
	case err == nil:
		histFusionDevices.Observe(float64(contributing))
	}
	if err == nil && calibrated {
		s.observeSession(defense, cache, sess, v, thr)
	}
	s.finish(sess, v, err)
}

// observeSession feeds a completed session back into the profile layer:
// a legitimate (non-attack) score moves the user's calibration EWMA, the
// session's wearables register as known devices, and the worker's cached
// effective threshold is refreshed so the next session sees the updated
// calibration. Attack scores never touch the EWMA — calibration tracks
// the user's legitimate voice, not the adversary's.
func (s *Server) observeSession(defense *core.Defense, cache *profile.LRU, sess *session, v *core.Verdict, thr float64) {
	if v.Attack {
		return
	}
	p := s.cfg.Profiles.Observe(sess.req.UserID, v.Score)
	profile.RecordOffset(p.Offset)
	s.cfg.Profiles.AddDevices(sess.req.UserID, sess.req.WearableAddr)
	s.cfg.Profiles.AddDevices(sess.req.UserID, sess.req.WearableAddrs...)
	cache.Put(sess.req.UserID, defense.Threshold()+p.Offset)
}

// sessionCtxError maps a session-context error to the typed server error.
func sessionCtxError(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return ErrSessionTimeout
	}
	return err
}

// finish delivers the terminal result and records the session outcome.
func (s *Server) finish(sess *session, v *core.Verdict, err error) {
	histSessionLatency.Observe(time.Since(sess.enqueued).Seconds())
	switch {
	case err == nil:
		metSessionsDone.Inc()
	case errors.Is(err, ErrSessionTimeout) || errors.Is(err, context.Canceled):
		metSessionsExpired.Inc()
	default:
		metSessionsFailed.Inc()
	}
	sess.done <- sessionResult{verdict: v, err: err}
}

// Shutdown drains the server: it closes the front-end listener (no new
// connections), rejects every queued-but-unstarted session with
// ErrDraining, waits for in-flight sessions to finish (bounded by ctx),
// and finally half-closes lingering front-end connections so their last
// responses are still delivered. Submit returns ErrDraining from the
// moment Shutdown begins. Concurrent and repeated calls converge on the
// first drain; they return ctx.Err() if it outlives their context.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.state != stateRunning {
		s.mu.Unlock()
		select {
		case <-s.drained:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	s.state = stateDraining
	ln := s.listener
	s.mu.Unlock()

	// 1. Close the listener first: by the time Shutdown returns (and
	// throughout the drain), no new connection can be accepted.
	if ln != nil {
		_ = ln.Close()
		s.acceptWG.Wait()
	}

	// 2. Reject queued-but-unstarted sessions. No Submit can enqueue
	// after the state flip, so this empties the queue exactly once; a
	// worker racing for the same session simply makes it in-flight
	// instead, which the drain then waits for.
	for {
		sess, ok := popNonBlocking(s.queue)
		if !ok {
			break
		}
		gaugeQueueDepth.Add(-1)
		metSessionsDrainRej.Inc()
		sess.done <- sessionResult{err: ErrDraining}
	}
	close(s.queue)

	// 3. Wait for in-flight sessions (bounded by ctx).
	workersDone := make(chan struct{})
	go func() {
		s.workerWG.Wait()
		close(workersDone)
	}()
	select {
	case <-workersDone:
	case <-ctx.Done():
		return ctx.Err()
	}

	// 4. Every session now has its result; half-close lingering
	// connections so handlers can still flush a final response, then see
	// EOF and exit.
	s.mu.Lock()
	for conn := range s.conns {
		if tc, ok := conn.(*net.TCPConn); ok {
			_ = tc.CloseRead()
		} else {
			_ = conn.Close()
		}
	}
	s.mu.Unlock()
	connsDone := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(connsDone)
	}()
	select {
	case <-connsDone:
	case <-ctx.Done():
		return ctx.Err()
	}

	s.mu.Lock()
	s.state = stateStopped
	s.mu.Unlock()
	close(s.drained)
	return nil
}

// popNonBlocking takes one queued session if any is ready.
func popNonBlocking(q chan *session) (*session, bool) {
	select {
	case sess, ok := <-q:
		return sess, ok
	default:
		return nil, false
	}
}

// Listen mounts the session front-end on addr and returns the resolved
// listen address. One listener per server; sessions arriving over it run
// through the same admission queue as Submit. The front-end speaks the
// framed binary protocol (wire.go) with connection multiplexing: many
// concurrent sessions per connection, each tagged with a stream id.
func (s *Server) Listen(addr string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != stateRunning {
		return "", ErrDraining
	}
	if s.listener != nil {
		return "", fmt.Errorf("serve: already listening on %s", s.listener.Addr())
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("serve: listen: %w", err)
	}
	s.listener = ln
	s.acceptWG.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

// Addr returns the front-end listen address ("" before Listen).
func (s *Server) Addr() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.listener == nil {
		return ""
	}
	return s.listener.Addr().String()
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.acceptWG.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.state != stateRunning {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.connWG.Add(1)
		s.mu.Unlock()
		go s.handleConn(conn)
	}
}

// handleConn serves one multiplexed front-end connection until the peer
// (or the drain's half-close) ends the read side; ServeMuxConnStream flushes
// every in-flight stream's response before returning.
func (s *Server) handleConn(conn net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
		s.connWG.Done()
	}()
	ServeMuxConnStream(conn, s.Submit, s.SubmitStream)
}

// Kill abruptly severs the server's network presence — the listener and
// every front-end connection close hard, with no drain and no final
// responses — simulating node death for the chaos harness. Peers observe
// resets mid-session. The worker pool keeps running in-process; use
// Shutdown to release it (safe after Kill).
func (s *Server) Kill() {
	s.mu.Lock()
	ln := s.listener
	conns := make([]net.Conn, 0, len(s.conns))
	for conn := range s.conns {
		conns = append(conns, conn)
	}
	s.mu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}
	for _, conn := range conns {
		if tc, ok := conn.(*net.TCPConn); ok {
			_ = tc.SetLinger(0) // RST, not FIN: the peer sees a dead node
		}
		_ = conn.Close()
	}
}
