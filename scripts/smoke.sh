#!/usr/bin/env bash
# smoke.sh MODE — end-to-end smoke test of one vibguardd mode
# (make obs-smoke, serve-smoke, stream-smoke, route-smoke, profile-smoke).
#
# Builds vibguardd, boots it in the background, waits for its pass to
# finish, asserts on the pass log lines (and /metrics when the mode runs
# with the debug listener), then requires a clean drain and exit:
#
#   obs      scenario pass with the debug listener: /healthz ok, /metrics
#            carries nonzero Inspect stage spans and syncnet attempts,
#            /debug/vars exposes the registry.
#   serve    32 concurrent sessions at one node: all complete with the
#            expected verdicts, and the serve counters moved.
#   stream   16 sessions, each also streamed in chunks: no streamed
#            verdict diverges from its batch twin, some exit early, and
#            the streaming, early-exit and VAD counters moved.
#   route    32 sessions through the router to 3 nodes, node 1 hard-killed
#            mid-burst: the victim goes down, survivors complete sessions,
#            nothing fails untyped or flips, and the router then the nodes
#            drain.
#   profile  fused two-wearable calibration passes for 4 users: the
#            second pass hits the threshold cache, fused scores reproduce
#            bit-for-bit, every attack is flagged, and the profile
#            snapshot round-trips.
set -euo pipefail

mode=${1:?usage: smoke.sh obs|serve|stream|route|profile}
GO=${GO:-go}
tmp=$(mktemp -d)
pid=""
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

debug=(-debug-addr 127.0.0.1:0)
case "$mode" in
obs)     args=(-seed 1 "${debug[@]}"); done_line="scenarios complete" ;;
serve)   args=(-mode serve -seed 1 -sessions 32 -wearables 8 "${debug[@]}"); done_line="fleet pass complete" ;;
stream)  args=(-mode stream -seed 1 -sessions 16 -wearables 8 "${debug[@]}"); done_line="stream pass complete" ;;
route)   args=(-mode route -nodes 3 -chaos-kill 1 -seed 1 -sessions 32 -wearables 8); done_line="route pass complete" ;;
profile) args=(-mode profiles -seed 1 -users 4); done_line="profile pass complete" ;;
*) echo "smoke: unknown mode $mode (want obs, serve, stream, route or profile)" >&2; exit 2 ;;
esac

"$GO" build -o "$tmp/vibguardd" ./cmd/vibguardd
"$tmp/vibguardd" "${args[@]}" -log-format text >"$tmp/log" 2>&1 &
pid=$!

die() {
    echo "$mode-smoke: $1" >&2
    echo "--- vibguardd log ---" >&2
    cat "$tmp/log" >&2
    exit 1
}

# wait_for PATTERN TRIES: poll the log every 0.5 s until PATTERN shows up;
# the daemon exiting first is a failure unless it already logged it.
wait_for() {
    for _ in $(seq 1 "$2"); do
        grep -q "$1" "$tmp/log" && return 0
        kill -0 "$pid" 2>/dev/null || break
        sleep 0.5
    done
    grep -q "$1" "$tmp/log" || die "no \"$1\" logged"
}

# line PATTERN: the first log line matching PATTERN.
line() { grep "$1" "$tmp/log" | head -1; }

# expect LINE PATTERN...: every PATTERN must appear in LINE.
expect() {
    local l=$1
    shift
    for p in "$@"; do
        echo "$l" | grep -q "$p" || die "missing $p: $l"
    done
}

# metrics NAME...: /metrics carries every NAME.
metrics() {
    m=$(curl -fsS "http://$addr/metrics") || die "/metrics fetch failed"
    for name in "$@"; do
        echo "$m" | grep -q "\"$name\"" || die "/metrics missing $name"
    done
}

# nonzero NAME...: every counter NAME moved.
nonzero() {
    for name in "$@"; do
        echo "$m" | grep -q "\"$name\": 0" && die "$name is zero"
    done
    return 0
}

# The daemon logs the resolved debug address before training starts.
addr=""
if [[ " ${args[*]} " == *" -debug-addr "* ]]; then
    wait_for "debug endpoints serving" 120
    addr=$(sed -n 's/.*debug endpoints serving.*addr=\([0-9.:]*\).*/\1/p' "$tmp/log" | head -1)
    [ -n "$addr" ] || die "no debug address logged"
    if [ "$mode" = obs ] || [ "$mode" = serve ]; then
        curl -fsS "http://$addr/healthz" | grep -q '"status":"ok"' || die "/healthz not ok"
    fi
fi

wait_for "$done_line" 360
case "$mode" in
obs)
    metrics pipeline.stage.align pipeline.stage.segment pipeline.stage.correlate \
        core.inspect.total syncnet.client.attempts
    # Two Inspects and at least two transport attempts.
    nonzero core.inspect.total syncnet.client.attempts
    curl -fsS "http://$addr/debug/vars" | grep -q '"vibguard"' || die "expvar missing registry"
    ;;
serve)
    # Nothing lost: the default queue admits the whole burst.
    expect "$(line "fleet pass complete")" "failed=0" "mismatches=0" "completed=32"
    metrics serve.sessions.accepted serve.sessions.completed serve.queue.depth \
        serve.session.latency_seconds syncnet.client.attempts
    nonzero serve.sessions.accepted serve.sessions.completed
    ;;
stream)
    # The batch pass is the reference the stream is checked against.
    expect "$(line "fleet pass complete")" "failed=0" "mismatches=0"
    pass=$(line "stream pass complete")
    expect "$pass" "stream_mismatches=0"
    echo "$pass" | grep -q "early_exits=0" && die "no session exited early: $pass"
    metrics pipeline.time_to_verdict_seconds pipeline.early_exit \
        pipeline.full_run vad.gated_frames pipeline.stream.evals
    nonzero pipeline.early_exit vad.gated_frames
    ;;
route)
    grep -q "chaos: killing node" "$tmp/log" || die "chaos kill never fired"
    grep -q 'node transition.*node=node1.*to=down' "$tmp/log" || die "victim never transitioned down"
    # Sessions on the victim surface as typed node_lost, never as untyped
    # failures, hangs or silent losses.
    pass=$(line "route pass complete")
    expect "$pass" "failed=0" "mismatches=0" "shed=0"
    completed=$(echo "$pass" | sed -n 's/.*completed=\([0-9]*\).*/\1/p')
    [ -n "$completed" ] && [ "$completed" -gt 0 ] || die "no session completed: $pass"
    ;;
profile)
    pass=$(line "profile pass complete")
    # A cold cache on pass 2 means the profile layer is not consulted.
    hits=$(echo "$pass" | sed -n 's/.*cache_hits=\([0-9]*\).*/\1/p')
    [ -n "$hits" ] || die "no cache_hits field logged: $pass"
    [ "$hits" -gt 0 ] || die "profile cache never hit: $pass"
    expect "$pass" "fusion_mismatches=0" "failed=0" "verdict_mismatches=0" \
        "attacks_flagged=4" "snapshot_users=4"
    ;;
esac

# Stop a daemon holding its debug endpoints open, then require the drain.
[ -n "$addr" ] && kill -TERM "$pid"
case "$mode" in
obs) ;;
route) wait_for "router drained" 120; wait_for "nodes drained" 120 ;;
*) wait_for "session server drained" 120 ;;
esac
wait "$pid" || die "daemon exited nonzero"
pid=""

echo "$mode-smoke: ok"
