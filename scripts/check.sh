#!/usr/bin/env bash
# Tier-1 pre-merge gate: formatting, vet, build, the repo's own static
# analyzers (cmd/nvlint), and race-enabled tests for the fast packages on
# the synthesis hot path. Everything runs offline with the Go toolchain
# only. Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l cmd internal examples ./*.go)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== nvlint ./..."
go run ./cmd/nvlint ./...

echo "== go test -race (fast packages)"
go test -race ./internal/ast ./internal/sqlparser ./internal/spider ./internal/core ./internal/nledit ./internal/dataset

echo "== store round trip (determinism gate)"
go test -run 'TestSaveLoadRoundTrip|TestGoldenManifestDeterminism|TestVerifyDetectsFlippedByte|TestShardedSaveWorkerCountsByteIdentical' ./internal/store

echo "== faultguard: fault-injection suite with -race"
go test -race ./internal/fault ./internal/deepeye ./internal/bench ./internal/server ./internal/store ./internal/vql ./cmd/nvbench

# faultguard runs bench, server, store and cmd/nvbench whole under -race:
# that covers the instrumented-build identity, events-on store identity,
# crash-sweep and replica failover/scrub tests; obsguard adds ./internal/obs.
echo "== obsguard: metrics registry, wide-event recorder, golden exposition and trace under -race"
go test -race ./internal/obs

# Go minimizes every new-coverage input before it reports it, up to 60 s
# by default; with KB-sized seeds that fills a whole 5 s window, so the
# cap is one minimization exec. A target fails the step unless its last
# progress line counts more execs than its corpus total: a fuzzer that
# only ran its seeds did not fuzz. (A large cached corpus can do this
# too; `go clean -fuzzcache` empties it.)
echo "== crashguard: fuzzers"
for target in \
    "FuzzEntryCodec ./internal/store" \
    "FuzzDecodeDatabase ./internal/store" \
    "FuzzDecodeEntry ./internal/store" \
    "FuzzJournalRecover ./internal/store" \
    "FuzzShardRoute ./internal/store" \
    "FuzzScrubResolve ./internal/store" \
    "FuzzVQLParse ./internal/vql" \
    "FuzzTryParse ./internal/sqlparser" \
    "FuzzParseString ./internal/ast" \
    "FuzzLazySource ./internal/nledit" \
    "FuzzGroupRows ./internal/dataset" \
    "FuzzPairwise ./internal/bleu"; do
    set -- $target
    out=$(go test -run "^$1\$" -fuzz "^$1\$" -fuzztime 5s -fuzzminimizetime 1x "$2" 2>&1) || {
        printf '%s\n' "$out"
        exit 1
    }
    printf '%s\n' "$out"
    last=$(printf '%s\n' "$out" | grep 'execs: [0-9]* .*(total: [0-9]*)' | tail -n 1 || true)
    execs=$(printf '%s' "$last" | sed -E 's/.*execs: ([0-9]+) .*/\1/')
    total=$(printf '%s' "$last" | sed -E 's/.*\(total: ([0-9]+)\).*/\1/')
    if [ -z "$last" ] || [ "$execs" -le "$total" ]; then
        echo "crashguard: $1 ran ${execs:-no} execs for a corpus of ${total:-unknown}: it did not fuzz" >&2
        exit 1
    fi
done

echo "check: OK"
