// Command vibguardd demonstrates the distributed deployment of the
// defense against one simulated fleet: a synthesized voice command
// rendered along four acoustic paths (the legitimate command and a
// thru-barrier replay, each as heard at the VA and at a wearable), with
// every wearable a live TCP agent (the paper's WiFi link) that serves its
// recording after its own seeded network delay. -mode picks what drives
// the fleet:
//
//   - scenario (default): the VA side triggers one wearable agent upon a
//     wake word for each of the two commands, aligns the recordings with
//     Eq. (5), and runs the full detection pipeline. Recordings arrive
//     through the hardened syncnet client (bounded retries with
//     exponential backoff and per-attempt deadlines), and one agent and
//     one client serve the whole pass: the wearable link is a persistent
//     session, not a per-command connection.
//   - serve: one session-oriented detection node (internal/serve) takes a
//     burst of concurrent sessions through its TCP front-end.
//   - stream: the serve burst, with each session also streamed in
//     -chunk-ms chunks; the server may answer with an early verdict
//     before the recording ends, and every streamed verdict must match
//     the batch verdict of the identical seeded session.
//   - route: -nodes detection nodes behind the consistent-hash session
//     router (internal/router) take the burst through the router's
//     front-door; -chaos-kill hard-kills one node mid-burst to show typed
//     node-loss errors and failover.
//   - profiles: one node with the per-user profile store runs two
//     calibration passes of fused two-wearable sessions per simulated
//     user. The second pass must hit the worker's threshold cache and
//     reproduce every fused score bit-for-bit, calibrated users must
//     still reject a fused replay, and the store round-trips through its
//     snapshot file.
//
// Every node's workers share one trained BRNN behind one coalescing
// segmenter. With -debug-addr the daemon serves its observability surface
// over HTTP (/metrics pipeline counters and stage-latency quantiles as
// JSON, /healthz, /debug/vars, /debug/pprof) and stays alive after the
// pass until SIGINT/SIGTERM, so the endpoints remain scrapeable; nodes
// drain after that.
//
// Runs are reproducible: -seed pins every random choice, and the chosen
// seed (time-derived when the flag is 0) is always logged at startup so
// any run can be replayed.
//
// Usage:
//
//	vibguardd [-mode scenario] [-addr 127.0.0.1:0] [-spl 80] [-retries 4]
//	          [-retry-base 25ms] [-retry-max 500ms]
//	          [-seed 0] [-debug-addr 127.0.0.1:6060] [-log-format text]
//	vibguardd -mode serve|stream [-serve-addr 127.0.0.1:0] [-sessions 64]
//	          [-wearables 8] [-serve-workers 0] [-queue-depth 0]
//	          [-chunk-ms 100]
//	vibguardd -mode route [-nodes 3] [-chaos-kill -1] [-sessions 64]
//	          [-wearables 8] [-serve-addr 127.0.0.1:0]
//	vibguardd -mode profiles [-users 4] [-serve-addr 127.0.0.1:0]
//	          [-serve-workers 1]
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"vibguard"
	"vibguard/internal/obs"
	"vibguard/internal/syncnet"
)

// options is the parsed command line.
type options struct {
	mode       string
	seed       int64
	debugAddr  string
	attackSPL  float64
	agentAddr  string
	policy     syncnet.RetryPolicy
	serveAddr  string
	sessions   int
	wearables  int
	workers    int
	queueDepth int
	chunkMs    int
	nodes      int
	chaosKill  int
	users      int
}

func main() {
	var o options
	flag.StringVar(&o.mode, "mode", "scenario", "what drives the fleet: scenario, serve, stream, route or profiles")
	flag.StringVar(&o.agentAddr, "addr", "127.0.0.1:0", "wearable agent listen address (scenario)")
	flag.Float64Var(&o.attackSPL, "spl", 80, "attack playback level in dB SPL")
	retries := flag.Int("retries", 4, "total transport attempts per recording request (scenario)")
	retryBase := flag.Duration("retry-base", 25*time.Millisecond, "backoff before the second attempt (scenario)")
	retryMax := flag.Duration("retry-max", 500*time.Millisecond, "cap on the exponential backoff (scenario)")
	flag.Int64Var(&o.seed, "seed", 0, "RNG seed; 0 derives one from the clock (the seed is always logged, so any run can be replayed with -seed)")
	flag.StringVar(&o.debugAddr, "debug-addr", "", "serve /metrics, /healthz, /debug/vars and /debug/pprof on this address (empty = off)")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	flag.StringVar(&o.serveAddr, "serve-addr", "127.0.0.1:0", "session front-end listen address: the node, or the router in route mode")
	flag.IntVar(&o.sessions, "sessions", 64, "concurrent sessions in the burst (serve, stream, route)")
	flag.IntVar(&o.wearables, "wearables", 8, "simulated wearable fleet size (serve, stream, route)")
	flag.IntVar(&o.workers, "serve-workers", 0, "detection worker pool size per node, 0 = GOMAXPROCS (1 in profiles mode)")
	flag.IntVar(&o.queueDepth, "queue-depth", 0, "admission queue depth per node, 0 = sized so the demo burst is never shed (serve, stream, route)")
	flag.IntVar(&o.chunkMs, "chunk-ms", 100, "streamed chunk duration in milliseconds (stream)")
	flag.IntVar(&o.nodes, "nodes", 3, "detection node count behind the router (route)")
	flag.IntVar(&o.chaosKill, "chaos-kill", -1, "node index to hard-kill mid-burst, -1 = none (route)")
	flag.IntVar(&o.users, "users", 4, "simulated wearable-paired user count (profiles)")
	flag.Parse()

	logger, err := newLogger(*logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vibguardd:", err)
		os.Exit(2)
	}
	slog.SetDefault(logger)
	run := map[string]func(*slog.Logger, options) error{
		"scenario": runScenario, "serve": runFleet, "stream": runFleet, "route": runFleet, "profiles": runProfiles,
	}[o.mode]
	if run == nil {
		fmt.Fprintf(os.Stderr, "vibguardd: unknown -mode %q (want scenario, serve, stream, route or profiles)\n", o.mode)
		os.Exit(2)
	}

	o.policy = syncnet.DefaultRetryPolicy()
	o.policy.MaxAttempts = *retries
	o.policy.BaseDelay = *retryBase
	o.policy.MaxDelay = *retryMax
	if o.seed == 0 {
		o.seed = time.Now().UnixNano()
	}
	logger.Info("starting", "seed", o.seed, "spl", o.attackSPL, "retries", *retries, "mode", o.mode)
	if err := run(logger, o); err != nil {
		logger.Error("fatal", "err", err)
		os.Exit(1)
	}
}

// newLogger builds the daemon logger for -log-format.
func newLogger(format string) (*slog.Logger, error) {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
	}
}

// serveDebug mounts the observability surface on debugAddr.
func serveDebug(logger *slog.Logger, debugAddr string) error {
	ln, err := net.Listen("tcp", debugAddr)
	if err != nil {
		return fmt.Errorf("debug listener: %w", err)
	}
	srv := &http.Server{Handler: obs.DebugMux(obs.Default())}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			logger.Error("debug server", "err", err)
		}
	}()
	logger.Info("debug endpoints serving",
		"addr", ln.Addr().String(),
		"endpoints", "/metrics /healthz /debug/vars /debug/pprof")
	return nil
}

// holdDebug keeps the debug endpoints up after a pass until SIGINT or
// SIGTERM, so /metrics can be scraped; it returns at once when they are
// off.
func holdDebug(logger *slog.Logger, debugAddr, pass string) {
	if debugAddr == "" {
		return
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	logger.Info(pass + " complete; debug endpoints still serving (SIGINT/SIGTERM to exit)")
	<-stop
}

// scenario is one acoustic situation of the scenario pass: the command
// heard at the VA and at the wearable (network delay already applied).
type scenario struct {
	name         string
	vaRec        []float64
	wearRec      []float64
	expectAttack bool
}

// scenarios renders the scenario pass from the fixture: the legitimate
// command, then the thru-barrier replay, each with its wearable's own
// seeded network delay.
func (f *fixture) scenarios() []scenario {
	return []scenario{
		{"legitimate command", f.legitVA, f.wearRec(false), false},
		{"thru-barrier replay attack", f.attackVA, f.wearRec(true), true},
	}
}

// stagedAgent starts one wearable agent whose served recording can be
// swapped between requests, so the whole scenario pass shares a single
// agent and a single client connection instead of redialing per command.
func stagedAgent(logger *slog.Logger, addr string) (*syncnet.WearableAgent, func([]float64), error) {
	var staged atomic.Value // []float64
	agent, err := syncnet.NewWearableAgent(addr, func(uint64) ([]float64, error) {
		rec, _ := staged.Load().([]float64)
		if rec == nil {
			return nil, fmt.Errorf("no recording staged")
		}
		return rec, nil
	}, syncnet.WithConnErrorHandler(func(err error) {
		logger.Warn("wearable agent", "err", err)
	}))
	if err != nil {
		return nil, nil, err
	}
	return agent, func(rec []float64) { staged.Store(rec) }, nil
}

// scenarioPass fetches each scenario's wearable recording through the one
// shared client and inspects it, logging every verdict. stage swaps the
// recording the shared agent serves. It returns how many verdicts differed
// from the scenario's expectation.
func scenarioPass(logger *slog.Logger, defense *vibguard.Defense, client *syncnet.ReliableClient,
	stage func([]float64), scenarios []scenario, rng *rand.Rand) (int, error) {
	mismatches := 0
	for _, sc := range scenarios {
		stage(sc.wearRec)
		fetched, err := client.RequestRecording()
		if err != nil {
			return mismatches, fmt.Errorf("fetch %s: %w", sc.name, err)
		}
		verdict, err := defense.Inspect(sc.vaRec, fetched, rng)
		if err != nil {
			return mismatches, fmt.Errorf("inspect %s: %w", sc.name, err)
		}
		status := "ACCEPTED"
		if verdict.Attack {
			status = "REJECTED (thru-barrier attack)"
		}
		if verdict.Attack != sc.expectAttack {
			mismatches++
		}
		syncMs := float64(verdict.SyncOffset) * 1000 / vibguard.SampleRate
		logger.Info("verdict",
			"scenario", sc.name,
			"score", fmt.Sprintf("%+.3f", verdict.Score),
			"sync_ms", fmt.Sprintf("%.1f", syncMs),
			"spans", len(verdict.Spans),
			"status", status,
			"as_expected", verdict.Attack == sc.expectAttack)
	}
	return mismatches, nil
}

// runScenario is the scenario mode: both commands through one staged
// agent and one hardened client.
func runScenario(logger *slog.Logger, o options) error {
	rng := rand.New(rand.NewSource(o.seed))
	coal, err := setup(logger, o, rng)
	if err != nil {
		return err
	}
	defer coal.Close()
	defense, err := newDefense(coal)
	if err != nil {
		return err
	}
	fx, err := buildFixture(logger, rng, o.attackSPL)
	if err != nil {
		return err
	}
	scenarios := fx.scenarios()

	// One agent serves the whole pass over one TCP connection; the VA side
	// fetches every recording through one hardened client, as in the real
	// deployment where the wearable link is persistent.
	agent, stage, err := stagedAgent(logger, o.agentAddr)
	if err != nil {
		return err
	}
	defer func() { _ = agent.Close() }()
	client, err := syncnet.NewReliableClient(agent.Addr(), syncnet.WithRetryPolicy(o.policy))
	if err != nil {
		return err
	}
	defer func() { _ = client.Close() }()

	mismatches, err := scenarioPass(logger, defense, client, stage, scenarios, rng)
	if err != nil {
		return err
	}
	logger.Info("scenario pass complete",
		"scenarios", len(scenarios), "mismatches", mismatches,
		"conn_errors", agent.ConnErrors(), "redials", client.Redials())
	holdDebug(logger, o.debugAddr, "scenarios")
	return nil
}
