package main

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"vibguard"
	"vibguard/internal/acoustics"
	"vibguard/internal/core"
	"vibguard/internal/device"
	"vibguard/internal/profile"
	"vibguard/internal/router"
	"vibguard/internal/segment"
	"vibguard/internal/serve"
	"vibguard/internal/syncnet"
)

// fixture is the simulated acoustics every mode draws from: one
// synthesized command rendered once along four paths, plus the wearable
// agents booted to serve it.
type fixture struct {
	utt        *vibguard.Utterance
	legitVA    []float64
	legitWear  []float64
	attackVA   []float64
	attackWear []float64
	rng        *rand.Rand
	agents     []*syncnet.WearableAgent
}

// buildFixture synthesizes the command and renders its legitimate and
// thru-barrier paths at the VA and at the wearable, in that draw order, so
// every mode replays from the seed.
func buildFixture(logger *slog.Logger, rng *rand.Rand, attackSPL float64) (*fixture, error) {
	user := vibguard.NewVoicePool(1, rng.Int63())[0]
	synth, err := vibguard.NewSynthesizer(user)
	if err != nil {
		return nil, err
	}
	cmd := vibguard.Commands()[rng.Intn(len(vibguard.Commands()))]
	utt, err := synth.Synthesize(cmd)
	if err != nil {
		return nil, err
	}
	room := vibguard.Rooms()[0]
	logger.Info("fleet setup",
		"command", cmd.Text, "speaker", user.Name,
		"room", room.Name, "barrier", room.Barrier.Name)

	f := &fixture{utt: utt, rng: rng}
	for _, p := range []struct {
		dst       *[]float64
		spl, dist float64
		thru      bool
	}{
		{&f.legitVA, 72, 1.5, false},
		{&f.legitWear, 72, 0.3, false},
		{&f.attackVA, attackSPL, 2.1, true},
		{&f.attackWear, attackSPL, 2.4, true},
	} {
		*p.dst, err = room.Transmit(utt.Samples, acoustics.PathConfig{
			SourceSPL: p.spl, DistanceM: p.dist, ThroughBarrier: p.thru,
			SampleRate: vibguard.SampleRate,
		}, rng)
		if err != nil {
			return nil, err
		}
	}
	return f, nil
}

// va returns the VA's recording of the legitimate command or the replay.
func (f *fixture) va(attack bool) []float64 {
	if attack {
		return f.attackVA
	}
	return f.legitVA
}

// wearRec returns one wearable's recording of the legitimate command or
// the replay, after that wearable's own seeded network delay.
func (f *fixture) wearRec(attack bool) []float64 {
	near := f.legitWear
	if attack {
		near = f.attackWear
	}
	return vibguard.SimulateNetworkDelay(near, 0.05+f.rng.Float64()*0.1, f.rng)
}

// wearable boots an agent serving one wearable's recording and returns
// its address; close stops every agent booted this way.
func (f *fixture) wearable(attack bool) (string, error) {
	rec := f.wearRec(attack)
	agent, err := syncnet.NewWearableAgent("127.0.0.1:0", func(uint64) ([]float64, error) {
		return rec, nil
	})
	if err != nil {
		return "", err
	}
	f.agents = append(f.agents, agent)
	return agent.Addr(), nil
}

func (f *fixture) close() {
	for _, a := range f.agents {
		_ = a.Close()
	}
}

// setup mounts the debug endpoints when asked, trains the phoneme
// detector once, and wraps it in the coalescing segmenter every defense
// shares: sessions that reach span detection together traverse the BRNN
// weights once per timestep for the whole batch, and a lone session runs
// alone with no added latency.
func setup(logger *slog.Logger, o options, rng *rand.Rand) (*segment.Coalescer, error) {
	if o.debugAddr != "" {
		if err := serveDebug(logger, o.debugAddr); err != nil {
			return nil, err
		}
	}
	logger.Info("training phoneme detector")
	det, err := vibguard.TrainPhonemeDetector(vibguard.DetectorTraining{Seed: rng.Int63()})
	if err != nil {
		return nil, err
	}
	return segment.NewCoalescer(det, 0), nil
}

// newDefense builds the paper's pipeline on the shared segmenter.
func newDefense(coal *segment.Coalescer) (*core.Defense, error) {
	return core.NewDefense(core.DefaultConfig(device.NewFossilGen5(), coal))
}

// newNode boots one detection node on listen. Its workers' defenses share
// the coalescer; store, when non-nil, enables per-user profiles.
func newNode(logger *slog.Logger, coal *segment.Coalescer, o options, listen string, queueDepth int, store *profile.Store) (*serve.Server, string, error) {
	srv, err := serve.NewServer(serve.Config{
		NewDefense:     func() (*core.Defense, error) { return newDefense(coal) },
		Workers:        o.workers,
		QueueDepth:     queueDepth,
		SessionTimeout: 2 * time.Minute,
		Seed:           o.seed,
		Profiles:       store,
	})
	if err != nil {
		return nil, "", err
	}
	addr, err := srv.Listen(listen)
	if err != nil {
		return nil, "", err
	}
	logger.Info("node serving", "addr", addr,
		"workers", srv.Workers(), "queue_depth", srv.QueueDepth(), "profiles", store != nil)
	return srv, addr, nil
}

// drain keeps the debug endpoints up after the pass, then shuts down the
// router, if any, and then every node: the rolling-restart order, in
// which the front door stops taking sessions and in-flight ones finish.
func drain(logger *slog.Logger, o options, pass string, rt *router.Router, nodes []*serve.Server) error {
	holdDebug(logger, o.debugAddr, pass)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	what := "session server"
	if rt != nil {
		what = "nodes"
		logger.Info("draining router")
		if err := rt.Shutdown(ctx); err != nil {
			return fmt.Errorf("router drain: %w", err)
		}
		logger.Info("router drained")
	}
	logger.Info("draining " + what)
	for i, n := range nodes {
		if err := n.Shutdown(ctx); err != nil {
			return fmt.Errorf("node%d drain: %w", i, err)
		}
	}
	logger.Info(what + " drained")
	return nil
}

// tally counts a burst's session outcomes.
type tally struct {
	completed, shed, nodeLost, failed, mismatches atomic.Int64
	earlyExits, streamMismatches, resolved        atomic.Int64
}

// ok classifies a session's error and reports whether it succeeded.
// Node loss is expected under -chaos-kill: the session was in flight on
// (or routed to) the killed node, and the typed error names the node.
func (t *tally) ok(logger *slog.Logger, i int, err error) bool {
	var ne *serve.NodeError
	switch {
	case err == nil:
		return true
	case errors.Is(err, serve.ErrOverloaded):
		t.shed.Add(1)
	case errors.Is(err, serve.ErrNodeLost):
		t.nodeLost.Add(1)
		if errors.As(err, &ne) {
			logger.Info("session lost node", "session", i, "node", ne.Node)
		}
	default:
		t.failed.Add(1)
		logger.Error("session failed", "session", i, "err", err)
	}
	return false
}

// burst fires o.sessions concurrent sessions at addr over a handful of
// multiplexed connections; session i targets wearable i mod n, which
// heard the replay when its index is odd. In stream mode each session is
// streamed again, and an early exit must never change the verdict the
// batch pipeline reached on the same audio.
func burst(logger *slog.Logger, o options, addr string, fx *fixture, wearables []string, t *tally) error {
	clients := make([]*serve.Client, min(4, o.sessions))
	for c := range clients {
		client, err := serve.DialServer(addr, 5*time.Second)
		if err != nil {
			return fmt.Errorf("front-door dial: %w", err)
		}
		defer func() { _ = client.Close() }()
		clients[c] = client
	}
	var wg sync.WaitGroup
	for i := 0; i < o.sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer t.resolved.Add(1)
			w, client := i%len(wearables), clients[i%len(clients)]
			attack := w%2 == 1
			req := serve.Request{
				UserID:       fmt.Sprintf("user%d", i%16),
				WearableAddr: wearables[w],
				VARecording:  fx.va(attack),
				RNGSeed:      serve.SessionSeed(o.seed, uint64(i)),
			}
			v, err := client.Inspect(req)
			if !t.ok(logger, i, err) {
				return
			}
			t.completed.Add(1)
			if v.Attack != attack {
				t.mismatches.Add(1)
				logger.Error("verdict mismatch", "session", i, "attack", v.Attack, "score", v.Score, "want", attack)
			}
			if o.mode != "stream" {
				return
			}
			sv, err := client.InspectStream(req, o.chunkSamples())
			if !t.ok(logger, i, err) {
				return
			}
			if sv.Early {
				t.earlyExits.Add(1)
			}
			if sv.Attack != v.Attack {
				t.streamMismatches.Add(1)
				logger.Error("streamed verdict mismatch", "session", i, "stream_attack", sv.Attack,
					"early", sv.Early, "consumed", sv.Consumed, "batch_attack", v.Attack)
			}
		}(i)
	}
	wg.Wait()
	return nil
}

// chunkSamples is the streamed chunk length -chunk-ms asks for.
func (o options) chunkSamples() int { return max(1, o.chunkMs*int(vibguard.SampleRate)/1000) }

// runFleet is the serve, stream and route modes: a burst of concurrent
// sessions against the fleet, at one node or through the router to
// o.nodes nodes, then a drain.
func runFleet(logger *slog.Logger, o options) error {
	route := o.mode == "route"
	nodeCount, pass := 1, "fleet pass"
	if route {
		nodeCount, pass = o.nodes, "route pass"
	}
	if nodeCount < 1 || o.sessions < 1 || o.wearables < 1 {
		return fmt.Errorf("-nodes, -sessions and -wearables must be >= 1")
	}
	if route && o.chaosKill >= o.nodes {
		return fmt.Errorf("-chaos-kill %d out of range for %d nodes", o.chaosKill, o.nodes)
	}
	if o.queueDepth == 0 {
		// Every session may land on one node; size each queue for the
		// whole burst so the demo pass is never shed. Pass -queue-depth
		// explicitly to watch the admission queue shed load instead.
		o.queueDepth = o.sessions
	}
	rng := rand.New(rand.NewSource(o.seed))
	coal, err := setup(logger, o, rng)
	if err != nil {
		return err
	}
	defer coal.Close()
	fx, err := buildFixture(logger, rng, o.attackSPL)
	if err != nil {
		return err
	}
	defer fx.close()
	wearables := make([]string, o.wearables)
	for i := range wearables {
		if wearables[i], err = fx.wearable(i%2 == 1); err != nil {
			return err
		}
	}

	var rt *router.Router
	if route {
		rt = router.New(router.Config{
			ProbeInterval: 100 * time.Millisecond,
			ProbeTimeout:  time.Second,
			FailAfter:     2,
			OnTransition: func(node string, from, to router.NodeState) {
				logger.Info("node transition", "node", node, "from", from.String(), "to", to.String())
			},
		})
	}
	nodes := make([]*serve.Server, nodeCount)
	addr := ""
	for i := range nodes {
		listen := o.serveAddr
		if route {
			listen = "127.0.0.1:0"
		}
		if nodes[i], addr, err = newNode(logger, coal, o, listen, o.queueDepth, nil); err != nil {
			return err
		}
		if route {
			if err := rt.Register(fmt.Sprintf("node%d", i), addr); err != nil {
				return err
			}
		}
	}
	if route {
		if addr, err = rt.Listen(o.serveAddr); err != nil {
			return err
		}
		logger.Info("router serving", "addr", addr, "nodes", nodeCount)
	}

	var t tally
	if route && o.chaosKill >= 0 {
		// Kill the victim once a quarter of the burst has resolved, so the
		// death lands mid-burst with sessions in flight on it.
		go func() {
			for t.resolved.Load() < int64(o.sessions/4) {
				time.Sleep(time.Millisecond)
			}
			logger.Info("chaos: killing node", "node", fmt.Sprintf("node%d", o.chaosKill))
			nodes[o.chaosKill].Kill()
		}()
	}
	if err := burst(logger, o, addr, fx, wearables, &t); err != nil {
		return err
	}
	logger.Info(pass+" complete",
		"sessions", o.sessions,
		"completed", t.completed.Load(),
		"shed", t.shed.Load(),
		"node_lost", t.nodeLost.Load(),
		"failed", t.failed.Load(),
		"mismatches", t.mismatches.Load())
	if o.mode == "stream" {
		logger.Info("stream pass complete",
			"sessions", o.sessions, "chunk_samples", o.chunkSamples(),
			"early_exits", t.earlyExits.Load(), "stream_mismatches", t.streamMismatches.Load())
	}
	if err := drain(logger, o, pass, rt, nodes); err != nil {
		return err
	}

	switch {
	case t.failed.Load() > 0 || t.mismatches.Load() > 0:
		return fmt.Errorf("%s: %d failed sessions, %d verdict mismatches", pass, t.failed.Load(), t.mismatches.Load())
	case t.streamMismatches.Load() > 0:
		return fmt.Errorf("stream pass: %d streamed verdicts diverged from batch", t.streamMismatches.Load())
	case o.chaosKill < 0 && t.nodeLost.Load() > 0:
		return fmt.Errorf("%s: %d sessions lost nodes with no chaos injected", pass, t.nodeLost.Load())
	}
	return nil
}
