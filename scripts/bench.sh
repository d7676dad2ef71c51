#!/usr/bin/env bash
# Benchmark runner: the root reproduction benchmarks, then the gated store,
# observability and VQL benchmarks recorded as BENCH_*.json.
# The sections, their benchtimes and their gates are one table in
# cmd/nvgate. Offline, Go toolchain only. Usage: scripts/bench.sh
set -euo pipefail
cd "$(dirname "$0")/.."
exec go run ./cmd/nvgate
