#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it:
#   bash tmperf/run.sh --workload cascade --seed 1 --seconds 40 --trace 0
# Run it from the repository root. Build outputs, the Go build cache, the
# Go tool's own config and telemetry files, and span files stay under
# .bench_build/ in that root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/tmperf"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C "$root/tmperf" build -o "$out/tmperf" . >&2
exec "$out/tmperf" "$@"
