package router

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"vibguard/internal/core"
	"vibguard/internal/serve"
)

// Router lifecycle states (mirroring serve.Server).
const (
	stateRunning = iota
	stateDraining
	stateStopped
)

// NodeState is a registered node's health state.
type NodeState int32

const (
	// NodeUp: the node answers probes and takes new sessions.
	NodeUp NodeState = iota
	// NodeDown: probes (or a live session) failed; the node stays
	// registered and on the ring, but the routing walk skips it until a
	// probe succeeds again.
	NodeDown
	// NodeDraining: operator-initiated drain; off the ring for new
	// sessions while in-flight ones finish. Terminal.
	NodeDraining
)

// String names the state for logs and transition hooks.
func (s NodeState) String() string {
	switch s {
	case NodeUp:
		return "up"
	case NodeDown:
		return "down"
	case NodeDraining:
		return "draining"
	default:
		return fmt.Sprintf("state(%d)", int32(s))
	}
}

// DialFunc dials a node front-end; it matches syncnet.DialFunc so the
// faults injector plugs straight in.
type DialFunc func(addr string, timeout time.Duration) (net.Conn, error)

// Config parameterizes a Router.
type Config struct {
	// VirtualNodes is the points-per-node count on the hash ring
	// (default 64).
	VirtualNodes int
	// ProbeInterval is the health-check period (default 500ms).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe's dial + ping round trip
	// (default 2s).
	ProbeTimeout time.Duration
	// FailAfter is the consecutive probe failures before an up node
	// transitions down (default 2). A session-level connection loss
	// transitions immediately.
	FailAfter int
	// DialTimeout bounds the session-path dial of a node connection
	// (default 5s).
	DialTimeout time.Duration
	// Dial overrides both the probe and session transport (fault
	// injection, testing). Nil dials TCP.
	Dial DialFunc
	// OnTransition, if set, observes every health transition. Called
	// outside the router lock; must be safe for concurrent use.
	OnTransition func(node string, from, to NodeState)
	// Resubmits is how many times a session that died with a node
	// (serve.ErrNodeLost) is resubmitted to the next ring successor before
	// the failure is surfaced. The failed node is demoted first, so each
	// resubmit deterministically walks to the next up node. 0 means the
	// default of 1 resubmit; negative disables resubmission entirely.
	// Typed application errors (shed, timeout, wearable failure) are never
	// resubmitted — only node loss, where the session provably has no
	// answer.
	Resubmits int
}

// withDefaults fills in defaults.
func (c Config) withDefaults() Config {
	if c.VirtualNodes <= 0 {
		c.VirtualNodes = 64
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 2
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.Dial == nil {
		c.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	if c.Resubmits == 0 {
		c.Resubmits = 1
	}
	if c.Resubmits < 0 {
		c.Resubmits = -1
	}
	return c
}

// resubmits returns the effective resubmit budget.
func (c Config) resubmits() int {
	if c.Resubmits < 0 {
		return 0
	}
	return c.Resubmits
}

// node is one registered serve node.
type node struct {
	id   string
	addr string

	// state is guarded by the router lock; inflight is atomic so drains
	// can poll it without the lock.
	state    NodeState
	failures int
	inflight atomic.Int64

	// client is the lazily dialed multiplexed session connection,
	// guarded by cmu (not the router lock: dialing must not block
	// routing to other nodes).
	cmu    sync.Mutex
	client *serve.Client

	stopOnce  sync.Once
	probeStop chan struct{}
	probeDone chan struct{}
}

// stop ends the node's prober (idempotent) and waits for it, then
// releases the session connection.
func (n *node) stop() {
	n.stopOnce.Do(func() { close(n.probeStop) })
	<-n.probeDone
	n.cmu.Lock()
	if n.client != nil {
		_ = n.client.Close()
		n.client = nil
	}
	n.cmu.Unlock()
}

// Router consistent-hashes sessions onto a fleet of serve nodes. See the
// package comment for the architecture.
type Router struct {
	cfg Config

	mu    sync.RWMutex
	state int
	ring  *Ring
	nodes map[string]*node

	listener net.Listener
	conns    map[net.Conn]struct{}
	acceptWG sync.WaitGroup
	connWG   sync.WaitGroup
	// submitWG counts in-flight Submits; Add happens only while the
	// state is running (under the read lock), so Shutdown's flip-then-
	// wait is race-free.
	submitWG sync.WaitGroup
	drained  chan struct{}
}

// New builds a router with no nodes; Register adds them.
func New(cfg Config) *Router {
	return &Router{
		cfg:     cfg.withDefaults(),
		ring:    NewRing(cfg.VirtualNodes),
		nodes:   make(map[string]*node),
		conns:   make(map[net.Conn]struct{}),
		drained: make(chan struct{}),
	}
}

// Register adds a serve node under a stable id and starts probing it.
// The node is immediately eligible for new sessions (optimistically up;
// the first failed probes or session demote it).
func (r *Router) Register(id, addr string) error {
	if id == "" || addr == "" {
		return fmt.Errorf("router: node needs an id and an address")
	}
	r.mu.Lock()
	if r.state != stateRunning {
		r.mu.Unlock()
		return serve.ErrDraining
	}
	if _, ok := r.nodes[id]; ok {
		r.mu.Unlock()
		return fmt.Errorf("router: node %q already registered", id)
	}
	n := &node{
		id: id, addr: addr, state: NodeUp,
		probeStop: make(chan struct{}),
		probeDone: make(chan struct{}),
	}
	r.nodes[id] = n
	r.ring.Add(id)
	gaugeNodes.Set(float64(len(r.nodes)))
	r.mu.Unlock()
	go r.probeLoop(n)
	return nil
}

// DrainNode removes a node from the ring for new sessions and blocks
// until its in-flight sessions finish (bounded by ctx). The node stays
// registered in the draining state; pair with the node's own
// serve.Server.Shutdown for a rolling restart that loses nothing.
func (r *Router) DrainNode(ctx context.Context, id string) error {
	r.mu.Lock()
	n, ok := r.nodes[id]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("router: unknown node %q", id)
	}
	if n.state != NodeDraining {
		r.transitionLocked(n, NodeDraining)
		r.ring.Remove(id)
	}
	r.mu.Unlock()

	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for n.inflight.Load() > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
	return nil
}

// NodeStates snapshots every registered node's health state.
func (r *Router) NodeStates() map[string]NodeState {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]NodeState, len(r.nodes))
	for id, n := range r.nodes {
		out[id] = n.state
	}
	return out
}

// NodeFor returns the id of the node that would serve key right now —
// the ring owner, or its first up successor while the owner is down.
func (r *Router) NodeFor(key string) (string, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, id := range r.ring.Successors(key) {
		if n := r.nodes[id]; n != nil && n.state == NodeUp {
			return id, nil
		}
	}
	return "", serve.ErrNoNodes
}

// NodeStreams returns the number of sessions pending on a node's
// multiplexed connection (0 for unknown ids or before the first dial).
// It is the relay-leak observability hook: a router at rest must report
// 0 for every node — a stable nonzero count is a leaked stream id.
func (r *Router) NodeStreams(id string) int {
	r.mu.RLock()
	n := r.nodes[id]
	r.mu.RUnlock()
	if n == nil {
		return 0
	}
	n.cmu.Lock()
	defer n.cmu.Unlock()
	if n.client == nil {
		return 0
	}
	return n.client.InFlight()
}

// InFlight returns a node's in-flight session count (0 for unknown ids).
func (r *Router) InFlight(id string) int64 {
	r.mu.RLock()
	n := r.nodes[id]
	r.mu.RUnlock()
	if n == nil {
		return 0
	}
	return n.inflight.Load()
}

// transitionLocked moves a node to a new state under the router lock and
// fires the hook/metrics outside it.
func (r *Router) transitionLocked(n *node, to NodeState) {
	from := n.state
	if from == to {
		return
	}
	n.state = to
	switch to {
	case NodeUp:
		metNodeUp.Inc()
	case NodeDown:
		metNodeDown.Inc()
	}
	if hook := r.cfg.OnTransition; hook != nil {
		go hook(n.id, from, to)
	}
}

// RouteKey is the consistent-hash key contract of a session: the
// wearable-paired user id, falling back to the wearable address for
// legacy single-wearable sessions that carry no identity. The fallback
// is only sound when the session names exactly one wearable — with a
// multi-wearable fleet, hashing whichever address came first would
// scatter one user's sessions (and the per-user profile state the nodes
// cache) across the ring. Submit and SubmitStream therefore reject
// profile-backed sessions (non-empty WearableAddrs) whose UserID is
// empty with serve.ErrUserIDRequired instead of routing them.
func RouteKey(req serve.Request) string {
	if req.UserID != "" {
		return req.UserID
	}
	return req.WearableAddr
}

// checkRoutable rejects sessions whose routing key would be ambiguous:
// a profile-backed session (one carrying extra wearable addresses) must
// name the user it belongs to.
func checkRoutable(req serve.Request) error {
	if len(req.WearableAddrs) > 0 && req.UserID == "" {
		return serve.ErrUserIDRequired
	}
	return nil
}

// pick chooses the serving node for key: the ring owner if it is up,
// else the first up successor (deterministic, key-dependent failover).
// It registers the in-flight session under the router's read lock, so a
// concurrent Shutdown cannot miss it.
func (r *Router) pick(key string) (*node, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.state != stateRunning {
		return nil, fmt.Errorf("%w (router)", serve.ErrDraining)
	}
	for _, id := range r.ring.Successors(key) {
		n := r.nodes[id]
		if n != nil && n.state == NodeUp {
			n.inflight.Add(1)
			r.submitWG.Add(1)
			return n, nil
		}
	}
	return nil, serve.ErrNoNodes
}

// ErrResubmitsExhausted marks a session that was resubmitted after node
// losses until the budget ran out; the final node's failure is wrapped, so
// errors.Is(err, serve.ErrNodeLost) still holds.
var ErrResubmitsExhausted = errors.New("router: resubmits exhausted")

// Submit routes one session to its node and blocks until the verdict (or
// typed failure) is back. A session that dies with its node
// (serve.ErrNodeLost) is resubmitted to the next ring successor up to
// Config.Resubmits times — the victim is demoted first, so the walk is the
// deterministic key-dependent failover order — before the loss is
// surfaced wrapped in ErrResubmitsExhausted. Per-node failures come
// wrapped in a serve.NodeError carrying the node id: a shed node surfaces
// as errors.Is(err, serve.ErrOverloaded) with the identity attached, a
// dead one as serve.ErrNodeLost. Routing failures (serve.ErrNoNodes, a
// draining router) carry no node.
func (r *Router) Submit(ctx context.Context, req serve.Request) (*core.Verdict, error) {
	if err := checkRoutable(req); err != nil {
		metSessionsRejected.Inc()
		return nil, err
	}
	budget := r.cfg.resubmits()
	var lastErr error
	for try := 0; try <= budget; try++ {
		if try > 0 {
			metSessionsResubmit.Inc()
		}
		v, err := r.submitOnce(ctx, req)
		if err == nil {
			return v, nil
		}
		lastErr = err
		if !errors.Is(err, serve.ErrNodeLost) {
			return nil, err // typed application or routing failure: final
		}
	}
	if budget > 0 {
		return nil, fmt.Errorf("%w after %d attempts: %w", ErrResubmitsExhausted, budget+1, lastErr)
	}
	return nil, lastErr
}

// submitOnce runs one routing attempt of a session.
func (r *Router) submitOnce(ctx context.Context, req serve.Request) (*core.Verdict, error) {
	n, err := r.pick(RouteKey(req))
	if err != nil {
		metSessionsRejected.Inc()
		return nil, err
	}
	defer r.submitWG.Done()
	defer n.inflight.Add(-1)
	metSessionsRouted.Inc()

	client, err := r.nodeClient(n)
	if err != nil {
		r.noteSessionFailure(n)
		metSessionsNodeLost.Inc()
		return nil, &serve.NodeError{Node: n.id,
			Err: fmt.Errorf("%w (dial: %v)", serve.ErrNodeLost, err)}
	}
	v, err := client.Inspect(req)
	if err != nil {
		if errors.Is(err, serve.ErrConnLost) {
			// The node (or its link) died mid-session. The connection is
			// unusable; demote the node now instead of waiting for the
			// prober to notice.
			n.dropClient(client)
			r.noteSessionFailure(n)
			metSessionsNodeLost.Inc()
			return nil, &serve.NodeError{Node: n.id,
				Err: fmt.Errorf("%w (%v)", serve.ErrNodeLost, err)}
		}
		// A typed application error from the node (shed, timeout,
		// wearable failure, …): propagate with the node identity.
		metSessionsFailed.Inc()
		return nil, &serve.NodeError{Node: n.id, Err: err}
	}
	metSessionsCompleted.Inc()
	return v, nil
}

// SubmitStream routes one streamed session, forwarding chunks to the
// node's stream as they arrive and buffering them so a mid-stream node
// loss can be resubmitted to the next successor with the full prefix
// replayed (resubmission is transparent: the client sees one stream and
// one verdict). Early exits propagate: the node's early verdict resolves
// the call and remaining inbound chunks are dropped. It satisfies
// serve.StreamSessionHandler, so it is the front door's chunk handler.
func (r *Router) SubmitStream(ctx context.Context, req serve.Request, chunks <-chan []float64) (*core.Verdict, error) {
	if err := checkRoutable(req); err != nil {
		metSessionsRejected.Inc()
		return nil, err
	}
	budget := r.cfg.resubmits()
	relay := &streamRelay{src: chunks}
	var lastErr error
	for try := 0; try <= budget; try++ {
		if try > 0 {
			metSessionsResubmit.Inc()
		}
		v, err := r.streamOnce(ctx, req, relay)
		if err == nil {
			return v, nil
		}
		lastErr = err
		if !errors.Is(err, serve.ErrNodeLost) {
			return nil, err
		}
	}
	if budget > 0 {
		return nil, fmt.Errorf("%w after %d attempts: %w", ErrResubmitsExhausted, budget+1, lastErr)
	}
	return nil, lastErr
}

// streamRelay buffers the chunks already pulled from the inbound stream so
// a resubmitted attempt can replay the identical prefix to a new node.
type streamRelay struct {
	src    <-chan []float64
	buf    [][]float64
	closed bool // src is exhausted
}

// streamOnce runs one routing attempt of a streamed session: replay the
// buffered prefix, then forward live chunks until the node answers early,
// the stream closes, or the node dies.
func (r *Router) streamOnce(ctx context.Context, req serve.Request, relay *streamRelay) (*core.Verdict, error) {
	n, err := r.pick(RouteKey(req))
	if err != nil {
		metSessionsRejected.Inc()
		return nil, err
	}
	defer r.submitWG.Done()
	defer n.inflight.Add(-1)
	metSessionsRouted.Inc()

	client, err := r.nodeClient(n)
	if err != nil {
		r.noteSessionFailure(n)
		metSessionsNodeLost.Inc()
		return nil, &serve.NodeError{Node: n.id,
			Err: fmt.Errorf("%w (dial: %v)", serve.ErrNodeLost, err)}
	}
	v, err := r.relayStream(ctx, client, req, relay)
	if err != nil {
		if errors.Is(err, serve.ErrConnLost) {
			n.dropClient(client)
			r.noteSessionFailure(n)
			metSessionsNodeLost.Inc()
			return nil, &serve.NodeError{Node: n.id,
				Err: fmt.Errorf("%w (%v)", serve.ErrNodeLost, err)}
		}
		metSessionsFailed.Inc()
		return nil, &serve.NodeError{Node: n.id, Err: err}
	}
	metSessionsCompleted.Inc()
	return v, nil
}

// relayStream pushes the relay's prefix and live chunks through one node
// stream and waits for the verdict.
func (r *Router) relayStream(ctx context.Context, client *serve.Client, req serve.Request, relay *streamRelay) (v *core.Verdict, err error) {
	s, err := client.OpenStream(req)
	if err != nil {
		return nil, err
	}
	// Any failure after the stream opened must abort it. Without the
	// abort, an attempt that fails for a reason other than the connection
	// dying — a canceled context above all — leaves the stream id
	// registered in the client's pending mux table forever: the entry is
	// only reaped by a verdict (which the abandoned stream will get, but
	// nobody is waiting to consume) or by the connection dying. Abort
	// deregisters the id and tombstones it so the node's eventual terminal
	// frame is dropped instead of killing the shared connection. On a
	// conn-lost failure the abort is a harmless no-op (the dead connection
	// already failed every pending stream).
	defer func() {
		if err != nil {
			s.Abort()
		}
	}()
	feeding := true
	for _, chunk := range relay.buf {
		done, err := s.Send(chunk)
		if err != nil {
			return nil, err
		}
		if done {
			feeding = false
			break
		}
	}
	for feeding && !relay.closed {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case chunk, ok := <-relay.src:
			if !ok {
				relay.closed = true
				break
			}
			relay.buf = append(relay.buf, chunk)
			done, err := s.Send(chunk)
			if err != nil {
				return nil, err
			}
			if done {
				feeding = false
			}
		}
	}
	if err := s.CloseSend(); err != nil {
		return nil, err
	}
	return s.Wait()
}

// nodeClient returns the node's multiplexed connection, dialing it on
// first use (or after a drop).
func (r *Router) nodeClient(n *node) (*serve.Client, error) {
	n.cmu.Lock()
	defer n.cmu.Unlock()
	if n.client != nil {
		return n.client, nil
	}
	conn, err := r.cfg.Dial(n.addr, r.cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	n.client = serve.NewClient(conn)
	return n.client, nil
}

// dropClient discards a dead connection so the next session redials.
func (n *node) dropClient(c *serve.Client) {
	n.cmu.Lock()
	if n.client == c {
		n.client = nil
	}
	n.cmu.Unlock()
	_ = c.Close()
}

// noteSessionFailure demotes a node after a session-path connection
// failure (draining nodes keep their state).
func (r *Router) noteSessionFailure(n *node) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n.state == NodeUp {
		n.failures = r.cfg.FailAfter // a live session beats FailAfter probes
		r.transitionLocked(n, NodeDown)
	}
}

// Listen mounts the router front-door on addr, speaking the same framed
// binary protocol as the nodes behind it. Sessions arriving over it run
// through Submit.
func (r *Router) Listen(addr string) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state != stateRunning {
		return "", serve.ErrDraining
	}
	if r.listener != nil {
		return "", fmt.Errorf("router: already listening on %s", r.listener.Addr())
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("router: listen: %w", err)
	}
	r.listener = ln
	r.acceptWG.Add(1)
	go r.acceptLoop(ln)
	return ln.Addr().String(), nil
}

// Addr returns the front-door listen address ("" before Listen).
func (r *Router) Addr() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.listener == nil {
		return ""
	}
	return r.listener.Addr().String()
}

func (r *Router) acceptLoop(ln net.Listener) {
	defer r.acceptWG.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		r.mu.Lock()
		if r.state != stateRunning {
			r.mu.Unlock()
			_ = conn.Close()
			return
		}
		r.conns[conn] = struct{}{}
		r.connWG.Add(1)
		r.mu.Unlock()
		go r.handleConn(conn)
	}
}

func (r *Router) handleConn(conn net.Conn) {
	defer func() {
		r.mu.Lock()
		delete(r.conns, conn)
		r.mu.Unlock()
		_ = conn.Close()
		r.connWG.Done()
	}()
	serve.ServeMuxConnStream(conn, r.Submit, r.SubmitStream)
}

// Shutdown drains the router: no new sessions from the moment it begins
// (Submit returns serve.ErrDraining), the front-door listener closes
// first, in-flight sessions finish (bounded by ctx), lingering front-door
// connections are half-closed so their final responses still flush, and
// only then do the probers stop and the node connections close. The
// two-hop drain ordering — router drains before the nodes behind it —
// is what lets a rolling restart lose nothing. Concurrent and repeated
// calls converge on the first drain.
func (r *Router) Shutdown(ctx context.Context) error {
	r.mu.Lock()
	if r.state != stateRunning {
		r.mu.Unlock()
		select {
		case <-r.drained:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	r.state = stateDraining
	ln := r.listener
	r.mu.Unlock()

	// 1. Close the listener: no new connection throughout the drain.
	if ln != nil {
		_ = ln.Close()
		r.acceptWG.Wait()
	}

	// 2. Wait for in-flight sessions (Submit calls), bounded by ctx. No
	// new Submit can start after the state flip.
	submitsDone := make(chan struct{})
	go func() {
		r.submitWG.Wait()
		close(submitsDone)
	}()
	select {
	case <-submitsDone:
	case <-ctx.Done():
		return ctx.Err()
	}

	// 3. Every stream now has its result; half-close lingering front-door
	// connections so handlers can flush final responses, then see EOF.
	r.mu.Lock()
	for conn := range r.conns {
		if tc, ok := conn.(*net.TCPConn); ok {
			_ = tc.CloseRead()
		} else {
			_ = conn.Close()
		}
	}
	r.mu.Unlock()
	connsDone := make(chan struct{})
	go func() {
		r.connWG.Wait()
		close(connsDone)
	}()
	select {
	case <-connsDone:
	case <-ctx.Done():
		return ctx.Err()
	}

	// 4. Stop the probers and release the node connections.
	r.mu.Lock()
	nodes := make([]*node, 0, len(r.nodes))
	for _, n := range r.nodes {
		nodes = append(nodes, n)
	}
	r.state = stateStopped
	r.mu.Unlock()
	for _, n := range nodes {
		n.stop()
	}
	close(r.drained)
	return nil
}
