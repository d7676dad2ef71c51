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

echo "== nvlint ./... (cached)"
go run ./cmd/nvlint -cache-dir .nvlint-cache ./...

echo "== go test -race (fast packages)"
go test -race ./internal/ast ./internal/sqlparser ./internal/spider ./internal/core

echo "== store round trip (determinism gate)"
go test -run 'TestSaveLoadRoundTrip|TestGoldenManifestDeterminism|TestVerifyDetectsFlippedByte|TestShardedSaveWorkerCountsByteIdentical' ./internal/store

echo "== faultguard: fault-injection suite with -race"
go test -race ./internal/fault ./internal/deepeye ./internal/bench ./internal/server ./internal/store ./internal/vql ./cmd/nvbench

# faultguard runs bench, server, store and cmd/nvbench whole under -race:
# that covers the instrumented-build identity, events-on store identity,
# crash-sweep and replica failover/scrub tests; obsguard adds ./internal/obs.
echo "== obsguard: metrics registry, wide-event recorder, golden exposition and trace under -race"
go test -race ./internal/obs

echo "== crashguard: fuzzers"
for target in \
    "FuzzEntryCodec ./internal/store" \
    "FuzzDecodeDatabase ./internal/store" \
    "FuzzDecodeEntry ./internal/store" \
    "FuzzSelfHashed ./internal/store" \
    "FuzzJournalRecover ./internal/store" \
    "FuzzShardRoute ./internal/store" \
    "FuzzScrubResolve ./internal/store" \
    "FuzzVQLParse ./internal/vql" \
    "FuzzTryParse ./internal/sqlparser" \
    "FuzzParseString ./internal/ast" \
    "FuzzPairwise ./internal/bleu"; do
    set -- $target
    go test -run "^$1\$" -fuzz "^$1\$" -fuzztime 5s "$2"
done

echo "check: OK"
