#!/usr/bin/env bash
# Builds vavgperf from the sources of the checkout this script lives in and
# runs it with the given arguments, for example from the checkout root:
#
#   bash bench/run.sh --workload mis-forests --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache, the workload input files and the trace
# files all stay under $CARGO_TARGET_DIR (default .bench_build, relative to
# the current directory).
set -euo pipefail

src=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out/tmp"
out=$(cd "$out" && pwd)

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
go -C "$src" build -o "$out/vavgperf" ./cmd/vavgperf
exec "$out/vavgperf" -workdir "$out" "$@"
