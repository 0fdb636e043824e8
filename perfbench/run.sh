#!/usr/bin/env bash
# Builds the benchmark from the module source of this checkout and runs it
# with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload inspect --seed 1 --seconds 10 --trace 0
#
# Every build artifact, cache and temporary file stays under .bench_build
# in the repository root; the network is never used (the benchmark module
# depends only on the repository module, by a local replace).
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
