#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#   bash simbench/run.sh --workload exact-tight-rmat16 --seed 1 --seconds 20 --trace 0
# The binary, the Go build cache and the span files stay under
# .bench_build/ in the current directory.
set -euo pipefail
out="$(pwd)/.bench_build/simbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd simbench && go build -o "$out/simbench" ./cmd/simbench)
exec "$out/simbench" "$@"
