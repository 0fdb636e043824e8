// Command perfbench is the repository's end-to-end benchmark. It brings
// up one deployment shape of the VibGuard detection system, sends a
// seeded corpus of legitimate and thru-barrier attack voice-command
// sessions through it for a fixed time, checks every verdict, and prints
// one JSON result line.
//
// Workloads:
//
//	inspect  batch core.Defense.Inspect in process
//	fused    two-wearable profile-backed sessions to one serve node over loopback
//	routed   single-wearable sessions through the router to two serve nodes
//
// Every workload is a closed loop: each client sends its next session as
// soon as its previous verdict returns. inspect and fused have one client,
// so latency is the full path's service time without queueing.
// routed has more clients than the fleet has workers (system.go), so
// sessions overlap, queue at the nodes, and contend for the CPUs, and
// sessions_per_s is the fleet's saturated throughput.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload inspect --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, at the
// reference machine speed of the speed probe (probe.go); with --trace 1
// it carries the per-layer metrics, raw, taken from the pipeline's
// always-on stage timers and counters over the measured window, and the
// 90th-percentile latency at the reference speed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"vibguard/internal/core"
	"vibguard/internal/obs"
)

// setupReps is how many times a run brings its system up; setup_s is the
// median.
const setupReps = 3

// accuracyFloor is the share of sessions whose verdict must match the
// ground-truth label. The defense's equal-error rates are 7-14% per attack
// kind, so a working pipeline stays well above it and a broken one (every
// verdict the same, or scores scrambled) falls below.
const accuracyFloor = 0.75

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is one measured session.
type outcome struct {
	idx int
	lat time.Duration
	// scale turns lat into a latency at the reference speed (probe.go).
	scale float64
	v     *core.Verdict
	err   error
}

func main() {
	workload := flag.String("workload", "", "workload name: inspect, fused, routed")
	seed := flag.Int64("seed", 1, "corpus seed")
	seconds := flag.Float64("seconds", 10, "measured duration")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	flag.Parse()
	res, err := run(*workload, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func run(workload string, seed int64, dur time.Duration, trace bool) (*result, error) {
	setup, ok := setups[workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	if dur <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	t0 := time.Now()
	corpus, err := buildCorpus(seed)
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d sessions synthesized in %v\n", len(corpus), time.Since(t0).Round(time.Millisecond))

	// Bring the system up setupReps times; keep the last. Each set-up is
	// timed between two probe samples.
	var dep *deployment
	probe := newSpeedProbe()
	probeMs := probe.sample()
	var setupRaw, setupScaled []float64
	for r := 0; r < setupReps; r++ {
		if dep != nil {
			dep.close()
		}
		t0 = time.Now()
		if dep, err = setup(corpus); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(t0).Seconds()
		next := probe.sample()
		setupRaw = append(setupRaw, d)
		setupScaled = append(setupScaled, d*scaleBetween(probeMs, next))
		probeMs = next
	}
	defer dep.close()

	t0 = time.Now()
	exp, err := warmUp(dep, corpus)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: setup %.3fs raw, %.3fs scaled (median of %d), warm-up %v\n",
		median(setupRaw), median(setupScaled), setupReps, time.Since(t0).Round(time.Millisecond))

	before := takeCounters()
	outs, elapsed, scaledElapsed, cost := measure(dep, len(corpus), dur, probe)
	after := takeCounters()
	after.cpu -= cost.cpu
	after.gc -= cost.gcs

	res := &result{Attempted: len(outs), Correct: true}
	var lats, scaledLats []float64
	right := 0
	for _, o := range outs {
		if o.err != nil {
			res.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: session %d failed: %v\n", o.idx, o.err)
			continue
		}
		if err := check(dep, exp[o.idx], o.v); err != nil {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: session %d: %v\n", o.idx, err)
		}
		if o.v.Attack == corpus[o.idx].attack {
			right++
		}
		ms := float64(o.lat) / float64(time.Millisecond)
		lats = append(lats, ms)
		scaledLats = append(scaledLats, ms*o.scale)
	}
	done := len(lats)
	if done == 0 {
		return nil, fmt.Errorf("no session completed")
	}
	if acc := float64(right) / float64(done); acc < accuracyFloor {
		res.Correct = false
		fmt.Fprintf(os.Stderr, "perfbench: accuracy %.3f below %.2f\n", acc, accuracyFloor)
	}
	sort.Float64s(lats)
	sort.Float64s(scaledLats)

	cpuMs := (after.cpu - before.cpu) * 1000 / float64(done)
	fmt.Fprintf(os.Stderr, "perfbench: %d sessions in %.3fs, raw p50 %.3fms p90 %.3fms cpu %.3fms/session, mean speed scale %.3f\n",
		done, elapsed, quantile(lats, 0.5), quantile(lats, 0.9), cpuMs, scaledElapsed/elapsed)
	if !trace {
		// End-to-end timings at the reference speed (probe.go).
		res.Metrics = map[string]metric{
			"latency_p50_ms": {quantile(scaledLats, 0.5), "ms"},
			"sessions_per_s": {float64(done) / scaledElapsed, "1/s"},
			"setup_s":        {median(setupScaled), "s"},
		}
		return res, nil
	}
	res.Metrics = layerMetrics(before, after, done, mean(lats))
	res.Metrics["cpu_ms_per_session"] = metric{cpuMs, "ms"}
	// The tail spreads too widely between runs on a shared machine to
	// bound, so it is reported beside the layers instead.
	res.Metrics["latency_p90_ms"] = metric{quantile(scaledLats, 0.9), "ms"}
	return res, nil
}

// expected holds a session's reference verdicts: the workload path's own
// first answer, and the batch Inspect answer when the deployment has an
// in-process reference.
type expected struct {
	first, batch *core.Verdict
}

// warmUp sends each session through the deployment once, untimed, so
// connections, caches, and pools are warm before timing, and records the
// answers every later pass is checked against.
func warmUp(dep *deployment, corpus []sample) ([]expected, error) {
	exp := make([]expected, len(corpus))
	for i := range corpus {
		s := &corpus[i]
		v, err := dep.run(i)
		if err != nil {
			return nil, fmt.Errorf("warm-up session %d: %w", i, err)
		}
		exp[i].first = v
		if dep.reference != nil {
			if exp[i].batch, err = dep.reference.Inspect(s.va, s.wear, rand.New(rand.NewSource(s.seed))); err != nil {
				return nil, fmt.Errorf("reference session %d: %w", i, err)
			}
		}
		if err := check(dep, exp[i], v); err != nil {
			return nil, fmt.Errorf("warm-up session %d: %w", i, err)
		}
	}
	return exp, nil
}

// check compares a verdict with the session's expected ones. Every pass
// must reproduce the first bit for bit (the session seed pins the
// stochastic sensing), and where the deployment has an in-process
// reference it must also equal batch Inspect bit for bit.
func check(dep *deployment, exp expected, v *core.Verdict) error {
	if v == nil {
		return fmt.Errorf("no verdict")
	}
	if math.IsNaN(v.Score) || v.Score < -1 || v.Score > 1 {
		return fmt.Errorf("score %v outside [-1, 1]", v.Score)
	}
	f := exp.first
	if math.Float64bits(v.Score) != math.Float64bits(f.Score) || (!dep.calibrated && v.Attack != f.Attack) {
		return fmt.Errorf("verdict (%v, attack=%v), first pass (%v, attack=%v)", v.Score, v.Attack, f.Score, f.Attack)
	}
	if b := exp.batch; b != nil {
		if math.Float64bits(v.Score) != math.Float64bits(b.Score) || v.Attack != b.Attack || v.SyncOffset != b.SyncOffset {
			return fmt.Errorf("verdict (%v, %v, %d), batch Inspect (%v, %v, %d)",
				v.Score, v.Attack, v.SyncOffset, b.Score, b.Attack, b.SyncOffset)
		}
	}
	return nil
}

// sliceDur is the length of one slice of the measured window; the speed
// probe is sampled between slices.
const sliceDur = 2 * time.Second

// probeCost is what the probe phases inside the measured window cost the
// process, so the per-layer figures can leave it out.
type probeCost struct {
	cpu float64 // CPU seconds, forced collections included
	gcs uint32  // collections forced
}

// measure runs the closed loop in slices until dur of measured time has
// passed, sampling the speed probe before the first slice and after each
// one. Every outcome of a slice is scaled by the probe samples on both
// sides of it. measure returns the outcomes, the measured seconds, raw
// and at the reference speed, and the cost of the probe phases.
func measure(dep *deployment, k int, dur time.Duration, probe *speedProbe) (outs []outcome, raw, scaled float64, cost probeCost) {
	sample := func() float64 {
		c0 := cpuSeconds()
		ms := probe.sample()
		cost.cpu += cpuSeconds() - c0
		cost.gcs++
		return ms
	}
	var next atomic.Int64
	probeMs := sample()
	for left := dur; left > 0; {
		t0 := time.Now()
		slice := closedLoop(dep, k, min(left, sliceDur), &next)
		d := time.Since(t0)
		left -= d
		after := sample()
		s := scaleBetween(probeMs, after)
		for i := range slice {
			slice[i].scale = s
		}
		outs = append(outs, slice...)
		raw += d.Seconds()
		scaled += d.Seconds() * s
		probeMs = after
	}
	return outs, raw, scaled, cost
}

// closedLoop runs dep.clients clients (one when unset) that take the
// corpus sessions in turn from next, each client sending its next session
// as soon as its previous verdict returns, until dur has passed; sessions
// already sent then finish.
func closedLoop(dep *deployment, k int, dur time.Duration, next *atomic.Int64) []outcome {
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		outs []outcome
	)
	start := time.Now()
	for c := 0; c < max(dep.clients, 1); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < dur {
				i := int(next.Add(1)-1) % k
				t0 := time.Now()
				v, err := dep.run(i)
				o := outcome{idx: i, lat: time.Since(t0), v: v, err: err}
				mu.Lock()
				outs = append(outs, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return outs
}

// counters is a point-in-time reading of the process and of the
// pipeline's metrics registry.
type counters struct {
	cpu      float64 // user+system CPU seconds of the process
	alloc    uint64  // cumulative heap bytes allocated
	gc       uint32
	registry obs.Snapshot
}

// cpuSeconds is the user+system CPU time of the process so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func takeCounters() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return counters{
		cpu:      cpuSeconds(),
		alloc:    ms.TotalAlloc,
		gc:       ms.NumGC,
		registry: obs.Default().Snapshot(),
	}
}

// Pipeline stage timers, in the order a session crosses them.
var stages = []struct{ metric, timer string }{
	{"align_ms", "pipeline.stage.align"},
	{"segment_ms", "pipeline.stage.segment"},
	{"phoneme_select_ms", "pipeline.stage.phoneme-select"},
	{"replay_ms", "pipeline.stage.replay"},
	{"stft_ms", "pipeline.stage.stft"},
	{"correlate_ms", "pipeline.stage.correlate"},
}

// layerMetrics turns the registry deltas of the measured window into
// per-session figures for each layer. other_ms is the part of the mean
// session latency that no stage, wearable fetch, or admission queue
// accounts for: wire, router, and scheduling.
func layerMetrics(b, a counters, sessions int, meanLatMs float64) map[string]metric {
	n := float64(sessions)
	count := func(name string) float64 {
		return float64(a.registry.Counters[name] - b.registry.Counters[name])
	}
	histSum := func(name string) float64 {
		return a.registry.Histograms[name].Sum - b.registry.Histograms[name].Sum
	}
	perSessionMs := func(name string) float64 { return histSum(name) * 1000 / n }

	m := map[string]metric{"sessions": {n, "count"}}
	accounted := 0.0
	for _, st := range stages {
		v := perSessionMs(st.timer)
		m[st.metric] = metric{v, "ms"}
		accounted += v
	}
	fetch := perSessionMs("syncnet.client.attempt")
	queue := perSessionMs("serve.session.queue_wait_seconds")
	m["fetch_ms"] = metric{fetch, "ms"}
	m["queue_wait_ms"] = metric{queue, "ms"}
	m["node_ms"] = metric{perSessionMs("serve.session.latency_seconds"), "ms"}
	m["other_ms"] = metric{meanLatMs - accounted - fetch - queue, "ms"}

	hits, misses := count("profile.cache.hits"), count("profile.cache.misses")
	hitShare := 0.0
	if hits+misses > 0 {
		hitShare = hits / (hits + misses)
	}
	m["profile_hit_share"] = metric{hitShare, "ratio"}
	m["shed"] = metric{count("serve.sessions.shed"), "count"}
	m["router_resubmits"] = metric{count("router.sessions.resubmitted"), "count"}
	m["fetch_attempts"] = metric{count("syncnet.client.attempts") / n, "count"}

	m["alloc_kb_per_session"] = metric{float64(a.alloc-b.alloc) / 1024 / n, "kB"}
	m["gc_cycles"] = metric{float64(a.gc - b.gc), "count"}
	return m
}

// quantile is the linearly interpolated q-quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
