#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#
#   bash perfbench/run.sh --workload ycsb-full --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. The Go build cache, the binary and
# the run's scratch files all live under the build directory
# ($CARGO_TARGET_DIR, default .bench_build), so nothing is written
# outside the checkout. The build fails, and the script exits non-zero,
# when the simulator's sources are not beside this directory.
set -euo pipefail
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/tmp"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" --workdir "$build/work" "$@"
