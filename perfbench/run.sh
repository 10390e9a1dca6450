#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload kernel-large --seed 1 --seconds 40 --trace 0
#
# Run it from the repository root. Everything it builds or writes (Go build
# cache, binary, invariant records, trace files) goes under
# ${CARGO_TARGET_DIR:-.bench_build}.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOENV=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -state "$out" "$@"
