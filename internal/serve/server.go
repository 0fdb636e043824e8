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
	"vibguard/internal/detector"
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
// through the cached hardened clients, then the full Inspect pipeline —
// one InspectDevices call over every wearable of a profile-backed
// multi-wearable session, with the per-device verdicts fused.
func (s *Server) process(defense *core.Defense, clients map[string]*syncnet.ReliableClient, cache *profile.LRU, sess *session) {
	if err := sess.ctx.Err(); err != nil {
		s.finish(sess, nil, sessionCtxError(err))
		return
	}
	seed := sess.req.RNGSeed
	if seed == 0 {
		seed = SessionSeed(s.cfg.Seed, sess.id)
	}
	if len(sess.req.WearableAddrs) == 0 {
		// Single-wearable path, unchanged from the pre-profile protocol:
		// fetch and inspection errors surface directly, and with the
		// profile layer off the verdict is bit-identical to the seed
		// deployment.
		client, err := s.clientFor(clients, sess.req.WearableAddr)
		if err != nil {
			s.finish(sess, nil, err)
			return
		}
		wear, err := client.RequestRecordingContext(sess.ctx)
		if err != nil {
			if ctxErr := sess.ctx.Err(); ctxErr != nil {
				err = fmt.Errorf("%w (fetch: %v)", sessionCtxError(ctxErr), err)
			}
			s.finish(sess, nil, err)
			return
		}
		if sess.chunks != nil {
			s.processStream(defense, sess, wear, seed)
			return
		}
		verdict, err := defense.Inspect(sess.req.VARecording, wear, rand.New(rand.NewSource(seed)))
		if err == nil {
			thr, calibrated := s.effectiveThreshold(defense, cache, sess.req.UserID)
			if calibrated {
				verdict.Attack = detector.DetectAt(verdict.Score, thr)
				s.observeSession(defense, cache, sess, verdict, thr)
			}
		}
		s.finish(sess, verdict, err)
		return
	}
	s.processFused(defense, clients, cache, sess, seed)
}

// processFused runs a profile-backed multi-wearable session: every
// wearable's recording is fetched and all are scored in one InspectDevices
// call (each under its own SplitMix64-derived seed, so the sensing streams
// are decorrelated), and the per-device verdicts fuse by weighted mean
// under the quorum rule — any single finite score still decides the
// session. Streamed sessions are admitted but fuse only after
// the stream: the chunked VA audio feeds the primary device's streaming
// pipeline unchanged, and the extras are scored batch-style on the full
// recording only if no early exit fired.
func (s *Server) processFused(defense *core.Defense, clients map[string]*syncnet.ReliableClient, cache *profile.LRU, sess *session, seed int64) {
	addrs := append([]string{sess.req.WearableAddr}, sess.req.WearableAddrs...)
	seen := make(map[string]bool, len(addrs))
	devices := make([]core.DeviceVerdict, 0, len(addrs))
	recordings := make([][]float64, 0, len(addrs))
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
		devices = append(devices, core.DeviceVerdict{Addr: addr})
		recordings = append(recordings, wear)
	}
	thr, calibrated := s.effectiveThreshold(defense, cache, sess.req.UserID)
	if sess.chunks != nil {
		s.processFusedStream(defense, sess, devices, recordings, seed, thr, cache, calibrated)
		return
	}
	inspectUnscored(defense, sess.req.VARecording, devices, recordings, 0, seed)
	s.finishFused(defense, cache, sess, devices, thr, calibrated)
}

// inspectUnscored scores recordings[first:] in one InspectDevices call,
// recording j under deviceSeed(seed, j), onto the devices that have neither
// verdict nor error yet (the fetched devices not yet scored, in order).
func inspectUnscored(defense *core.Defense, va []float64, devices []core.DeviceVerdict, recordings [][]float64, first int, seed int64) {
	rngs := make([]*rand.Rand, len(recordings)-first)
	for j := range rngs {
		rngs[j] = rand.New(rand.NewSource(deviceSeed(seed, uint64(first+j))))
	}
	verdicts, errs := defense.InspectDevices(va, recordings[first:], rngs)
	j := 0
	for i := range devices {
		if devices[i].Err == nil && devices[i].Verdict == nil {
			devices[i].Verdict, devices[i].Err = verdicts[j], errs[j]
			j++
		}
	}
}

// processFusedStream is the streamed shape of processFused: the primary
// device (the first fetched) runs the streaming pipeline on the chunked
// VA audio; an early exit decides the session on the primary alone (the
// extras' full-recording scores could shift a verdict the early exit
// already committed), while a stream that runs to completion scores the
// extras batch-style on the buffered recording and fuses all devices.
func (s *Server) processFusedStream(defense *core.Defense, sess *session, devices []core.DeviceVerdict, recordings [][]float64, seed int64, thr float64, cache *profile.LRU, calibrated bool) {
	if len(recordings) == 0 {
		// Every fetch failed; fuse immediately for the typed quorum error.
		s.finishFused(defense, cache, sess, devices, thr, calibrated)
		return
	}
	si, err := defense.NewStreamInspector(s.cfg.Stream, deviceSeed(seed, 0))
	if err != nil {
		s.finish(sess, nil, err)
		return
	}
	if err := si.FeedWearable(recordings[0]); err != nil {
		s.finish(sess, nil, err)
		return
	}
	p := 0 // the primary: the first device fetched
	for devices[p].Err != nil {
		p++
	}
	var va []float64
	for {
		select {
		case <-sess.ctx.Done():
			s.finish(sess, nil, sessionCtxError(sess.ctx.Err()))
			return
		case chunk, ok := <-sess.chunks:
			if !ok {
				v, err := si.Finish()
				devices[p].Verdict, devices[p].Err = v, err
				inspectUnscored(defense, va, devices, recordings, 1, seed)
				s.finishFused(defense, cache, sess, devices, thr, calibrated)
				return
			}
			va = append(va, chunk...)
			v, err := si.Feed(chunk)
			if err != nil {
				s.finish(sess, nil, err)
				return
			}
			if v != nil {
				metStreamSessionsEarly.Inc()
				devices[p].Verdict = v
				// The unscored extras carry neither verdict nor error, so
				// the fusion sees exactly one contributing device.
				s.finishFused(defense, cache, sess, devices, thr, calibrated)
				return
			}
		}
	}
}

// finishFused fuses the per-device verdicts, feeds the profile layer, and
// delivers the session result.
func (s *Server) finishFused(defense *core.Defense, cache *profile.LRU, sess *session, devices []core.DeviceVerdict, thr float64, calibrated bool) {
	fused, contributing, err := core.FuseVerdicts(devices, thr)
	if err != nil {
		s.finish(sess, nil, err)
		return
	}
	histFusionDevices.Observe(float64(contributing))
	if calibrated {
		s.observeSession(defense, cache, sess, fused, thr)
	}
	s.finish(sess, fused, nil)
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

// processStream runs one streamed session: the wearable recording seeds
// the inspector up front (it is fetched whole, like a batch session's),
// then VA chunks feed the streaming pipeline until an early exit fires or
// the stream closes and the batch fallback decides. The session deadline
// keeps covering the stream: an expired context fails the session even
// mid-stream.
func (s *Server) processStream(defense *core.Defense, sess *session, wear []float64, seed int64) {
	si, err := defense.NewStreamInspector(s.cfg.Stream, seed)
	if err != nil {
		s.finish(sess, nil, err)
		return
	}
	if err := si.FeedWearable(wear); err != nil {
		s.finish(sess, nil, err)
		return
	}
	for {
		select {
		case <-sess.ctx.Done():
			s.finish(sess, nil, sessionCtxError(sess.ctx.Err()))
			return
		case chunk, ok := <-sess.chunks:
			if !ok {
				v, err := si.Finish()
				s.finish(sess, v, err)
				return
			}
			v, err := si.Feed(chunk)
			if err != nil {
				s.finish(sess, nil, err)
				return
			}
			if v != nil {
				metStreamSessionsEarly.Inc()
				s.finish(sess, v, nil)
				return
			}
		}
	}
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
// (or the drain's half-close) ends the read side; ServeMuxConn flushes
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
