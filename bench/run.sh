#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, from
# the repository root:
#
#   bash bench/run.sh -workload serve-live -seed 1 -seconds 7 -trace 0
#
# Everything the toolchain and the benchmark write — build cache,
# binary, simulated corpus, journals, results — stays under
# .bench_build/ in the working directory. No network is used.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/gotmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
mkdir -p "$GOTMPDIR" "$TMPDIR"
go telemetry off
(cd "$root/bench" && go build -o "$build/bench" .)
exec "$build/bench" "$@"
