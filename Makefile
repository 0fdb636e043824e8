# VibGuard build/test targets. `make check` is the tier-1 gate;
# `make race` is the concurrency gate the parallel evaluation engine is
# developed under (go vet + the full test suite with the race detector).

GO ?= go

.PHONY: build test check lines race fuzz bench bench-scoring bench-dsp bench-brnn benchgen obs-smoke serve-smoke serve-race race-brnn pins-gomaxprocs1 route-race route-smoke stream-race stream-smoke bench-stream profile-race profile-smoke attack-race race-eval

build:
	$(GO) build ./...

test:
	$(GO) test ./...

check: build test
	test -z "$$(gofmt -l .)"

# Size report, not a gate: non-test Go lines outside perfbench/ (the
# benchmark harness) and its .bench_build/ output, then the assembly lines
# of each package and their total. ROADMAP's line-count items read these
# figures.
LINES_FIND = find . \( -path ./perfbench -o -path ./.bench_build -o -path ./.git \) -prune -o

lines:
	@echo "non-test Go lines: $$($(LINES_FIND) -name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l)"
	@total=0; for d in $$($(LINES_FIND) -name '*.s' -print | xargs -n1 dirname | sort -u); do \
		n=$$(cat $$d/*.s | wc -l); total=$$((total + n)); \
		echo "assembly lines $${d#./}: $$n"; \
	done; echo "assembly lines total: $$total"

# Concurrency gate: vet everything, then run the race detector over the
# whole module (the eval engine's equivalence and overlapping-slice tests
# are the interesting part; -short skips the long swept-dataset runs).
race:
	$(GO) vet ./...
	$(GO) test -race -short ./...

# Short fuzz runs of the WAV decoder, the Eq. (5) alignment, the detector
# deserializer, the frame decoder every network hop shares (session
# frames and the wearable link's trigger, recording and wearable-error
# frames, with their payload decoders), and the barrier-response
# estimator; the checked-in corpora under testdata/fuzz/ replay in plain
# `make test` too.
fuzz:
	$(GO) test -fuzz=FuzzRead -fuzztime=30s ./internal/wavio/
	$(GO) test -fuzz=FuzzAlignRecordings -fuzztime=30s ./internal/syncnet/
	$(GO) test -fuzz=FuzzLoad -fuzztime=30s ./internal/segment/
	$(GO) test -fuzz=FuzzDecodeFrame -fuzztime=30s ./internal/serve/
	$(GO) test -fuzz=FuzzEstimateBarrierGain -fuzztime=30s ./internal/attack/

# Focused race run for the parallel scoring engine only.
race-eval:
	$(GO) vet ./internal/eval/...
	$(GO) test -race ./internal/eval/...

# Race gate for the adaptive-adversary attack corpus: the attack
# generators (bypass equalizer, adaptive hill-climb, fuzz corpus replay)
# and the solid-channel acoustics run under the race detector.
attack-race:
	$(GO) vet ./internal/attack/ ./internal/acoustics/
	$(GO) test -race ./internal/attack/ ./internal/acoustics/

# Full benchmark sweep (regenerates every figure; slow).
bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# Dataset-scoring throughput of the parallel engine at one worker (the
# sequential reference) and on its worker pool (EXPERIMENTS.md records
# the output).
bench-scoring:
	$(GO) test -bench='BenchmarkDatasetScoring|BenchmarkScoreAll' -run=^$$ . ./internal/eval/

# DSP micro-benchmark baseline: runs the shared kernels (planned engine vs
# preserved legacy implementations) and rewrites the checked-in
# BENCH_dsp.json so future PRs have a perf trajectory; then times each
# replay pass (shaping, fold, delay-search product, speaker peak and cubic)
# on every kernel of this CPU into BENCH_dsp_passes.txt.
bench-dsp:
	$(GO) run ./cmd/benchdsp -out BENCH_dsp.json
	$(GO) test -run '^$$' -bench BenchmarkReplayPasses -count 3 ./internal/dsp/ > BENCH_dsp_passes.txt

# BRNN inference micro-benchmark baseline: the batched session kernels
# against the per-frame reference path on the paper architecture, written
# to the checked-in BENCH_brnn.json (the bench-dsp arrangement).
bench-brnn:
	$(GO) run ./cmd/benchbrnn -out BENCH_brnn.json

# Race gate for the batched inference kernels, the pooled detector
# scratch, and the layers that fork inside one session (segmentation
# beside the per-device alignments, the shared sensing drives, the
# accelerometer drive/noise split, the MFCC tables): the bit-equivalence
# suites and the concurrent-session tests run under the race detector.
race-brnn:
	$(GO) vet ./internal/brnn/ ./internal/segment/ ./internal/sensing/ ./internal/device/ ./internal/mfcc/ ./internal/detector/ ./internal/core/
	$(GO) test -race ./internal/brnn/ ./internal/segment/ ./internal/sensing/ ./internal/device/ ./internal/mfcc/ ./internal/detector/ ./internal/core/

# One session forks goroutines (segmentation beside the Eq. (5)
# alignments, the 1 + k replay drives of k wearables, the two BRNN
# directions in a training step). With one P the forked parts run one
# after the other; these bit-identity pins (golden EER/AUC, fusion
# goldens, the streamed early-exit golden and batch-equivalence checks,
# and the shared-versus-sequential pins) must hold there too, so the bits
# cannot depend on scheduling. The golden verdicts, the early-exit golden
# (inside the zero-flip test), the replay kernels' bounds
# against their legacy oracles, the delay-search contract, the wire
# sample-block pin and the packed gemm's pin on every gemm kernel are
# listed by name: their names do not say BitIdentical. A name that
# matches no test would silently drop its pin from -run, so every
# alternative of SERIAL_PINS must first match a test that `go test -list`
# finds in the pinned packages.
pins-gomaxprocs1:
	@tests="$$($(GO) test -list . $(PINNED_PKGS) | grep '^Test')" || exit 1; \
	for pin in $$(echo '$(SERIAL_PINS)' | tr '|' ' '); do \
		echo "$$tests" | grep -qE -- "$$pin" || { echo "SERIAL_PINS: $$pin matches no test in $(PINNED_PKGS)" >&2; exit 1; }; \
	done
	GOMAXPROCS=1 $(GO) test -count=1 -run '$(SERIAL_PINS)' $(PINNED_PKGS)

PINNED_PKGS = ./internal/eval/ ./internal/core/ ./internal/serve/ ./internal/sensing/ ./internal/dsp/ ./internal/mfcc/ ./internal/brnn/ ./internal/device/ ./internal/detector/ ./internal/wire/

SERIAL_PINS = TestGoldenMetrics|TestGoldenVerdicts|TestFuseGoldenTwoWearables|TestStreamInspectorMatchesBatchBitExact|TestStreamInspectorEarlyExitSoundness|TestSubmitStreamMatchesSubmit|TestStreamOverWireConcurrent|BitIdentical|TestInspectContractUnderConcurrency|TestScoreMatchesInspect|TestFrequencyShapeWithinBoundOfLegacy|TestShapeDecimateWithinBoundOfLegacy|TestDriveWithinBoundOfLegacy|TestEstimateDelayFFTMatchesDirectSweep|TestEstimateDelaysSharedSpectrumPerLength|TestSyncOffsetsMatchPackedSearch|TestSampleBlockCopyMatchesPerSampleLoop|TestPackedGemmMatchesReference

benchgen:
	$(GO) run ./cmd/benchgen -quick

# Observability smoke test: boot vibguardd with the debug listener, curl
# /healthz and /metrics, and assert the Inspect stage spans and syncnet
# attempt counters are populated after the scenario pass.
obs-smoke:
	./scripts/smoke.sh obs

# Session-server smoke test: boot vibguardd -mode serve against a simulated
# wearable fleet, assert the concurrent fleet pass completes with matching
# verdicts, scrape the serve counters from /metrics, and require a clean
# drain on SIGTERM.
serve-smoke:
	./scripts/smoke.sh serve

# Race gate for the session server and its daemon wiring: the 64-session
# soak, the fault matrix, and the drain suite all run under the race
# detector, with the shared front door (internal/wire) and the wearable
# agent that drains through it (internal/syncnet).
serve-race:
	$(GO) vet ./internal/serve/ ./cmd/vibguardd/ ./internal/wire/ ./internal/syncnet/
	$(GO) test -race -timeout 10m ./internal/serve/ ./cmd/vibguardd/ ./internal/wire/ ./internal/syncnet/

# Race gate for the routing tier: the ring property tests, the multi-node
# chaos suite (node death mid-session, partitioned links, rolling drain,
# two-hop half-close), and the 3-node soak with its bit-identical
# single-node cross-check, all under the race detector, with the shared
# front door (internal/wire) and the wearable agent that drains through it
# (internal/syncnet).
route-race:
	$(GO) vet ./internal/router/ ./internal/wire/ ./internal/syncnet/
	$(GO) test -race -timeout 10m ./internal/router/ ./internal/wire/ ./internal/syncnet/

# Multi-node routing smoke test: boot vibguardd -mode route with 3 nodes, kill
# one mid-burst, and assert sessions complete on the survivors with typed
# node-loss errors, zero mismatches, and a clean router-then-nodes drain.
route-smoke:
	./scripts/smoke.sh route

# Streaming-pipeline race gate: vet plus the race detector over every
# layer the chunked ingest path crosses (the VAD and its frame spectra, the
# incremental aligner, the early-exit inspector, the chunk frames and
# session server, the coalescing segmenter).
stream-race:
	$(GO) vet ./...
	$(GO) test -race -timeout 10m ./internal/dsp/ ./internal/syncnet/ ./internal/core/ ./internal/serve/ ./internal/segment/

# Streaming smoke test: boot vibguardd -mode stream, cross-check every
# streamed verdict against its batch twin, and assert the early-exit and
# VAD counters moved on /metrics.
stream-smoke:
	./scripts/smoke.sh stream

# Per-user profile race gate: the race detector over the profile store
# (concurrent observe/evict/snapshot), the fused serve path, and the
# router's stream-relay abort — the layers the profile feature crosses.
profile-race:
	$(GO) vet ./...
	$(GO) test -race -timeout 10m ./internal/profile/ ./internal/serve/ ./internal/router/ ./internal/core/

# Per-user profile smoke test: boot vibguardd -mode profiles, assert the
# second calibration pass hits the threshold cache, fused scores
# reproduce bit-for-bit, and the store snapshot round-trips.
profile-smoke:
	./scripts/smoke.sh profile

# Time-to-verdict baseline: batch vs streamed arms over the trained-BRNN
# acoustic corpus at real-time pace, regenerating the checked-in
# BENCH_stream.json that EXPERIMENTS.md cites.
bench-stream:
	$(GO) run ./cmd/benchstream -out BENCH_stream.json
