package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"vibguard"
	"vibguard/internal/core"
	"vibguard/internal/detector"
	"vibguard/internal/device"
	"vibguard/internal/profile"
	"vibguard/internal/router"
	"vibguard/internal/segment"
	"vibguard/internal/serve"
	"vibguard/internal/syncnet"
)

// trainSeed fixes the phoneme detector's training, so every run and every
// seed measures the same trained model; only the session corpus varies.
const trainSeed = 1

// Deployment shape of the networked workloads.
const (
	nodeWorkers = 2  // detection workers per serve node
	routedNodes = 2  // serve nodes behind the router
	queueDepth  = 64 // admission queue per node, deep enough that no session is shed
	fusedUsers  = 8  // profile-backed users the fused sessions belong to
	// routedClients is the routed workload's number of concurrent
	// clients: more than the fleet's routedNodes*nodeWorkers workers, so
	// the ring's placement decides which node's queue a session waits in,
	// and well under queueDepth, so no session is shed.
	routedClients = 6
)

// deployment is one ready-to-serve instance of the detection system for
// one workload.
type deployment struct {
	// run sends corpus session i through the workload's path and returns
	// its verdict.
	run func(i int) (*core.Verdict, error)
	// reference, when set, is an in-process Defense with the same trained
	// model whose batch Inspect gives the expected verdict of every
	// session that runs to the end of its recording.
	reference *core.Defense
	// calibrated is true when per-user calibration may move a session's
	// threshold between passes, so only its score is pinned.
	calibrated bool
	// clients is the number of concurrent closed-loop clients; zero means
	// one.
	clients int
	close   func()
}

// setups maps each workload to the function that brings its system up.
var setups = map[string]func([]sample) (*deployment, error){
	"inspect": setupInspect,
	"fused":   setupFused,
	"routed":  setupRouted,
}

func trainDetector() (*segment.Detector, error) {
	return vibguard.TrainPhonemeDetector(vibguard.DetectorTraining{Seed: trainSeed})
}

func newDefense(seg detector.Segmenter) (*core.Defense, error) {
	return core.NewDefense(core.DefaultConfig(device.NewFossilGen5(), seg))
}

// setupInspect serves sessions with batch core.Defense.Inspect in process.
func setupInspect(corpus []sample) (*deployment, error) {
	det, err := trainDetector()
	if err != nil {
		return nil, err
	}
	d, err := newDefense(vibguard.BRNNSegmenter(det))
	if err != nil {
		return nil, err
	}
	return &deployment{
		run: func(i int) (*core.Verdict, error) {
			s := &corpus[i]
			return d.Inspect(s.va, s.wear, rand.New(rand.NewSource(s.seed)))
		},
		// The first pass is itself batch Inspect, so no second reference.
		close: func() {},
	}, nil
}

// fleet owns the networked pieces of a deployment and stops them in
// dependency order: front-door client, router, nodes, segmenters, then
// the simulated wearables.
type fleet struct {
	agents  []*syncnet.WearableAgent
	nodes   []*serve.Server
	coals   []*segment.Coalescer
	router  *router.Router
	client  *serve.Client
	stopped bool
}

func (f *fleet) close() {
	if f.stopped {
		return
	}
	f.stopped = true
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if f.client != nil {
		_ = f.client.Close()
	}
	if f.router != nil {
		_ = f.router.Shutdown(ctx)
	}
	for _, n := range f.nodes {
		_ = n.Shutdown(ctx)
	}
	for _, c := range f.coals {
		c.Close()
	}
	for _, a := range f.agents {
		_ = a.Close()
	}
}

// wearable starts a simulated wearable agent serving rec and returns its
// address.
func (f *fleet) wearable(rec []float64) (string, error) {
	a, err := syncnet.NewWearableAgent("127.0.0.1:0", func(uint64) ([]float64, error) { return rec, nil })
	if err != nil {
		return "", err
	}
	f.agents = append(f.agents, a)
	return a.Addr(), nil
}

// node starts one serve node whose workers share seg and returns its
// listen address.
func (f *fleet) node(seg detector.Segmenter, profiles *profile.Store) (string, error) {
	srv, err := serve.NewServer(serve.Config{
		NewDefense:     func() (*core.Defense, error) { return newDefense(seg) },
		Workers:        nodeWorkers,
		QueueDepth:     queueDepth,
		SessionTimeout: time.Minute,
		Profiles:       profiles,
	})
	if err != nil {
		return "", err
	}
	f.nodes = append(f.nodes, srv)
	return srv.Listen("127.0.0.1:0")
}

func (f *fleet) dial(addr string) error {
	c, err := serve.DialServer(addr, 5*time.Second)
	if err != nil {
		return err
	}
	f.client = c
	return nil
}

// setupFused serves two-wearable, profile-backed sessions from one serve
// node over the loopback wire protocol: each session fetches both
// wearables' recordings, scores each, fuses the scores, and updates the
// user's calibration profile. The node's workers share one coalescing
// segmenter, as the daemon deploys it.
func setupFused(corpus []sample) (dep *deployment, err error) {
	f := &fleet{}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	det, err := trainDetector()
	if err != nil {
		return nil, err
	}
	coal := segment.NewCoalescer(det, 0)
	f.coals = append(f.coals, coal)
	watch := make([]string, len(corpus))
	earbud := make([]string, len(corpus))
	for i := range corpus {
		if watch[i], err = f.wearable(corpus[i].wear); err != nil {
			return nil, err
		}
		if earbud[i], err = f.wearable(corpus[i].wear2); err != nil {
			return nil, err
		}
	}
	addr, err := f.node(coal, profile.NewStore(profile.Config{}))
	if err != nil {
		return nil, err
	}
	if err := f.dial(addr); err != nil {
		return nil, err
	}
	return &deployment{
		run: func(i int) (*core.Verdict, error) {
			return f.client.Inspect(serve.Request{
				UserID:        fmt.Sprintf("user-%d", i%fusedUsers),
				WearableAddr:  watch[i],
				WearableAddrs: []string{earbud[i]},
				VARecording:   corpus[i].va,
				RNGSeed:       corpus[i].seed,
			})
		},
		calibrated: true,
		close:      f.close,
	}, nil
}

// setupRouted serves single-wearable sessions through two hops: the
// client talks to a consistent-hash router, which relays each session to
// one of two serve nodes by user id.
func setupRouted(corpus []sample) (dep *deployment, err error) {
	f := &fleet{}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	det, err := trainDetector()
	if err != nil {
		return nil, err
	}
	seg := vibguard.BRNNSegmenter(det)
	watch := make([]string, len(corpus))
	for i := range corpus {
		if watch[i], err = f.wearable(corpus[i].wear); err != nil {
			return nil, err
		}
	}
	f.router = router.New(router.Config{})
	for n := 0; n < routedNodes; n++ {
		addr, err := f.node(seg, nil)
		if err != nil {
			return nil, err
		}
		if err := f.router.Register(fmt.Sprintf("node%d", n), addr); err != nil {
			return nil, err
		}
	}
	addr, err := f.router.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if err := f.dial(addr); err != nil {
		return nil, err
	}
	ref, err := newDefense(seg)
	if err != nil {
		return nil, err
	}
	return &deployment{
		run: func(i int) (*core.Verdict, error) {
			return f.client.Inspect(serve.Request{
				UserID:       fmt.Sprintf("user-%d", i),
				WearableAddr: watch[i],
				VARecording:  corpus[i].va,
				RNGSeed:      corpus[i].seed,
			})
		},
		reference: ref,
		clients:   routedClients,
		close:     f.close,
	}, nil
}
