#!/usr/bin/env bash
# Benchmark runner: executes the root reproduction benchmarks (the paper's
# tables and figures) plus the store's cold-vs-warm incremental rebuild
# benchmark, and records the store numbers as BENCH_store.json for
# comparison across commits. A second section records the observability
# layer's costs as BENCH_obs.json — the registry hot path and the
# instrumented-vs-bare build overhead, asserted to stay under 5%. Offline,
# Go toolchain only.
#
# Usage: scripts/bench.sh            # quick pass (BENCHTIME=1x)
#        BENCHTIME=2s scripts/bench.sh
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-1x}"
OUT="${OUT:-BENCH_store.json}"
tmp=$(mktemp)
trap 'rm -f "$tmp" "${lintbin:-}"; rm -rf "${lintcache:-}"' EXIT

echo "== reproduction benchmarks (repo root, -benchtime $BENCHTIME)"
go test -run '^$' -bench . -benchtime "$BENCHTIME" .

echo
echo "== store benchmarks (-benchtime $BENCHTIME)"

# run_store_bench runs the store suite — the incremental rebuild, the
# sharded save comparison, the replicated save tax, and the clean-scrub
# cost — and writes BENCH_store.json; returns non-zero when the sharded
# cold save does not beat the monolithic baseline, when the 2-replica
# save exceeds 2.5x the single-copy save, or when a clean 2-replica
# scrub costs more than a cold rebuild.
run_store_bench() {
    go test -run '^$' -bench 'Benchmark(Store|ShardedRebuild|ReplicatedSave|ScrubClean)' -benchtime "$BENCHTIME" ./internal/store | tee "$tmp"

    # Parse "BenchmarkName/case-N  iters  ns/op" lines into a flat JSON
    # object mapping benchmark name to nanoseconds per op.
    awk '
      BEGIN { print "{"; n = 0 }
      /^Benchmark/ && $3 ~ /^[0-9.]+$/ {
        name = $1
        sub(/-[0-9]+$/, "", name)
        if (n++) printf ",\n"
        printf "  \"%s\": %s", name, $3
      }
      END { if (n) printf "\n"; print "}" }
    ' "$tmp" > "$OUT"

    echo
    echo "wrote $OUT:"
    cat "$OUT"

    # The incremental headline: a warm rebuild must beat a cold one.
    cold=$(awk -F': ' '/StoreRebuild\/cold/ {gsub(/[,}]/,"",$2); print $2}' "$OUT")
    warm=$(awk -F': ' '/StoreRebuild\/warm/ {gsub(/[,}]/,"",$2); print $2}' "$OUT")
    if [ -n "$cold" ] && [ -n "$warm" ]; then
        faster=$(awk -v c="$cold" -v w="$warm" 'BEGIN { print (w < c) ? "yes" : "no" }')
        echo "warm rebuild faster than cold: $faster (cold ${cold} ns/op, warm ${warm} ns/op)"
    fi

    # The sharding headline: fanning a cold save across shard workers must
    # beat the single-shard single-worker baseline.
    mono=$(awk -F': ' '/ShardedRebuild\/monolithic-cold/ {gsub(/[,}]/,"",$2); print $2}' "$OUT")
    shard=$(awk -F': ' '/ShardedRebuild\/sharded-cold/ {gsub(/[,}]/,"",$2); print $2}' "$OUT")
    if [ -z "$mono" ] || [ -z "$shard" ]; then
        echo "bench: sharded rebuild numbers missing from $OUT" >&2
        return 1
    fi
    awk -v m="$mono" -v s="$shard" 'BEGIN { exit (s < m) ? 0 : 1 }' || return 1

    # The replication headline: a 2-replica save writes every shard tree
    # twice but shares serialization and hashing across copies, so it must
    # stay under 2.5x the single-copy save.
    single=$(awk -F': ' '/ReplicatedSave\/single/ {gsub(/[,}]/,"",$2); print $2}' "$OUT")
    double=$(awk -F': ' '/ReplicatedSave\/double/ {gsub(/[,}]/,"",$2); print $2}' "$OUT")
    scrub=$(awk -F': ' '/ScrubClean/ {gsub(/[,}]/,"",$2); print $2}' "$OUT")
    if [ -z "$single" ] || [ -z "$double" ] || [ -z "$scrub" ] || [ -z "$cold" ]; then
        echo "bench: replication numbers missing from $OUT" >&2
        return 1
    fi
    awk -v s="$single" -v d="$double" 'BEGIN { exit (d < s * 2.5) ? 0 : 1 }' || return 1

    # The anti-entropy ceiling: a clean 2-replica scrub is pure hashing
    # and must cost less than a cold rebuild of the same corpus.
    awk -v sc="$scrub" -v c="$cold" 'BEGIN { exit (sc < c) ? 0 : 1 }'
}

# Save benchmarks are fsync-bound and jittery at small benchtimes; one
# retry absorbs an unlucky I/O spike before the gate fails.
if ! run_store_bench; then
    echo "store bench gate failed, retrying once"
    if ! run_store_bench; then
        echo "bench: store gate failed twice — sharded-vs-monolithic, replica tax, or scrub ceiling (see $OUT)" >&2
        exit 1
    fi
fi
echo "sharded cold save faster than monolithic: yes (monolithic ${mono} ns/op, sharded ${shard} ns/op)"
echo "2-replica save under 2.5x single-copy: yes (single ${single} ns/op, double ${double} ns/op)"
echo "clean 2-replica scrub cheaper than cold rebuild: yes (scrub ${scrub} ns/op, cold rebuild ${cold} ns/op)"

echo
# The 5% overhead gate needs enough iterations to average out scheduler
# jitter on a ~2.5ms build; iteration-count benchtimes (3x, 10x) flap.
OBS_BENCHTIME="${OBS_BENCHTIME:-1s}"
OBS_OUT="${OBS_OUT:-BENCH_obs.json}"
echo "== observability benchmarks (-benchtime $OBS_BENCHTIME)"

# bench_ns extracts one benchmark's ns/op from the captured output,
# tolerating the GOMAXPROCS suffix Go appends to sub-benchmark names.
bench_ns() {
    awk -v want="$1" '$3 ~ /^[0-9.]+$/ {
        name = $1; sub(/-[0-9]+$/, "", name)
        if (name == want) { print $3; exit }
    }' "$tmp"
}

# run_obs_bench runs the registry hot path, the wide-event recorder, and
# the bare-vs-instrumented build comparison once, writing BENCH_obs.json;
# returns non-zero when the full instrumentation — metrics, wide events,
# op IDs — costs 5% or more over a bare build.
run_obs_bench() {
    : > "$tmp"
    go test -run '^$' -bench 'BenchmarkRegistry|BenchmarkEventRecorder' -benchtime "$OBS_BENCHTIME" ./internal/obs | tee -a "$tmp"
    go test -run '^$' -bench 'BenchmarkBuildInstrumentation' -benchtime "$OBS_BENCHTIME" ./internal/bench | tee -a "$tmp"

    bare=$(bench_ns "BenchmarkBuildInstrumentation/bare")
    events=$(bench_ns "BenchmarkBuildInstrumentation/instrumented_events")
    if [ -z "$bare" ] || [ -z "$events" ]; then
        echo "bench: build instrumentation numbers missing" >&2
        return 1
    fi
    # The gated headline is the full events-on configuration.
    overhead=$(awk -v b="$bare" -v i="$events" 'BEGIN { printf "%.2f", (i - b) / b * 100 }')

    awk -v overhead="$overhead" '
      BEGIN { print "{" }
      /^Benchmark(Registry|EventRecorder|BuildInstrumentation)/ && $3 ~ /^[0-9.]+$/ {
        name = $1
        sub(/-[0-9]+$/, "", name)
        printf "  \"%s\": %s,\n", name, $3
      }
      END { printf "  \"build_overhead_pct\": %s\n}\n", overhead }
    ' "$tmp" > "$OBS_OUT"

    echo "wrote $OBS_OUT:"
    cat "$OBS_OUT"
    awk -v o="$overhead" 'BEGIN { exit (o < 5) ? 0 : 1 }'
}

# Build benchmarks are jittery at small benchtimes; one retry absorbs an
# unlucky scheduling spike before the gate fails.
if ! run_obs_bench; then
    echo "instrumentation overhead >= 5%, retrying once"
    if ! run_obs_bench; then
        echo "bench: instrumentation overhead >= 5% (see $OBS_OUT)" >&2
        exit 1
    fi
fi
echo "events-on instrumented build overhead under 5%: yes (${overhead}%)"

echo
LINT_OUT="${LINT_OUT:-BENCH_lint.json}"
echo "== lint cache benchmark (cold vs warm nvlint ./...)"
# Build the driver once so both timings measure analysis, not compilation.
# Timing lives here in the shell (date +%s%N): nvlint itself must stay free
# of wall-clock reads under the detrand rule.
lintbin=$(mktemp)
lintcache=$(mktemp -d)
go build -o "$lintbin" ./cmd/nvlint

# lint_wall_ms runs the cached driver over the module and prints wall
# milliseconds. Exit 1 (findings) is still a valid timing; >= 2 is a
# driver failure.
lint_wall_ms() {
    local start end rc=0
    start=$(date +%s%N)
    "$lintbin" -cache-dir "$lintcache" ./... >/dev/null 2>&1 || rc=$?
    end=$(date +%s%N)
    if [ "$rc" -ge 2 ]; then
        echo "bench: nvlint failed (exit $rc)" >&2
        return 1
    fi
    echo $(( (end - start) / 1000000 ))
}

cold_ms=$(lint_wall_ms)
warm_ms=$(lint_wall_ms)
printf '{\n  "lint_cold_ms": %s,\n  "lint_warm_ms": %s\n}\n' "$cold_ms" "$warm_ms" > "$LINT_OUT"
echo "wrote $LINT_OUT:"
cat "$LINT_OUT"

# The headline claim: a warm, fully cached lint never re-type-checks and
# must come in under a third of the cold wall time.
if ! awk -v c="$cold_ms" -v w="$warm_ms" 'BEGIN { exit (w * 3 < c) ? 0 : 1 }'; then
    echo "bench: warm nvlint (${warm_ms} ms) is not 3x faster than cold (${cold_ms} ms)" >&2
    exit 1
fi
echo "warm lint 3x faster than cold: yes (cold ${cold_ms} ms, warm ${warm_ms} ms)"

echo
VQL_OUT="${VQL_OUT:-BENCH_vql.json}"
echo "== vql query benchmarks (-benchtime $BENCHTIME)"

# run_vql_bench runs the query engine's indexed-vs-scan comparison over a
# saved store and writes BENCH_vql.json; returns non-zero when the
# persisted-index scan does not beat the full scan.
run_vql_bench() {
    go test -run '^$' -bench 'BenchmarkVQL' -benchtime "$BENCHTIME" ./internal/vql | tee "$tmp"

    awk '
      BEGIN { print "{"; n = 0 }
      /^BenchmarkVQL/ && $3 ~ /^[0-9.]+$/ {
        name = $1
        sub(/-[0-9]+$/, "", name)
        if (n++) printf ",\n"
        printf "  \"%s\": %s", name, $3
      }
      END { if (n) printf "\n"; print "}" }
    ' "$tmp" > "$VQL_OUT"

    echo
    echo "wrote $VQL_OUT:"
    cat "$VQL_OUT"

    scan=$(awk -F': ' '/VQLScan/ {gsub(/[,}]/,"",$2); print $2}' "$VQL_OUT")
    indexed=$(awk -F': ' '/VQLIndexed/ {gsub(/[,}]/,"",$2); print $2}' "$VQL_OUT")
    if [ -z "$scan" ] || [ -z "$indexed" ]; then
        echo "bench: vql numbers missing from $VQL_OUT" >&2
        return 1
    fi
    awk -v s="$scan" -v i="$indexed" 'BEGIN { exit (i < s) ? 0 : 1 }'
}

# The query benchmarks are in-memory but short at small benchtimes; one
# retry absorbs an unlucky scheduling spike before the gate fails.
if ! run_vql_bench; then
    echo "indexed query not faster than full scan, retrying once"
    if ! run_vql_bench; then
        echo "bench: indexed query slower than full scan (see $VQL_OUT)" >&2
        exit 1
    fi
fi
echo "indexed query faster than full scan: yes (scan ${scan} ns/op, indexed ${indexed} ns/op)"

echo "bench: OK"
