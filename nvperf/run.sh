#!/usr/bin/env bash
# Builds the nvperf benchmark from the checkout it sits in and runs it with
# the given arguments. Run from the repository root:
#
#	bash nvperf/run.sh --workload build --seed 1 --seconds 25 --trace 0
#
# The binary and Go's build cache live under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOFLAGS=
go build -C "$root/nvperf" -o "$out/nvperf" .
exec "$out/nvperf" "$@"
