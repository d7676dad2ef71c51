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

echo "== obsguard: metrics registry race suite, golden exposition and trace, instrumented-build identity"
go test -race ./internal/obs
go test -race -run 'TestWritePrometheusGolden|TestTracerGoldenJSON|TestLoggerGolden|TestInstrumentedBuildIsByteIdentical|TestMetricsEndpointServesPrometheusText|TestRunDeterministicUnderSameFaultSeed' \
    ./internal/obs ./internal/bench ./internal/server ./cmd/nvbench
echo "== obsguard: wide-event recorder under race, events-on store identity"
go test -race -run 'TestEventRecorderConcurrent|TestSlowLogPromotionAndPersistence' ./internal/obs
go test -race -run 'TestEventsLeaveSavedStoreByteIdentical|TestDebugEventsFilters|TestExemplarReachesMetricsScrape' ./internal/store ./internal/server

echo "== crashguard: re-exec crash sweeps and fuzzers"
go test -race -run 'TestCrashSweep' ./internal/store
for target in \
    "FuzzEntryCodec ./internal/store" \
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

echo "== replicaguard: replica failover, anti-entropy scrub, and read-failover chaos"
go test -race -run 'TestReplica|TestScrub|TestRunScrubber|TestChaos(Replica|Scrub)|TestOpenReplicatedFailsOver|TestLoadFailsOver|TestRepairHealsFromSecondary|TestSingleCopyLayoutUnchanged|TestSetReplicas' ./internal/store
go test -race -run 'TestReplicatedStoreEndToEnd|TestReadyzReportsFailover|TestScrubIntervalHealsWhileServing|TestHealthVerbExitCodeParity|TestReplicaFlagValidation' ./cmd/nvbench

echo "check: OK"
