#!/bin/sh
# The repository's verification gate, in two tiers:
#
#   tier 1  build + vet + the fast (-short) test suite — what every change
#           must keep green (see ROADMAP.md)
#   tier 2  the race detector over the concurrency-bearing packages: the
#           worker pool, the campaign service's bounded priority queue,
#           the fault-injection harness, the checkpoint journal, the
#           front-end trace cache, the observability layer, the covert
#           rate table's concurrent build, the experiment engine's
#           resilience layer, the fused-mix-engine equivalence (clean runs
#           and a mid-mix kill-and-resume), and the cmd-level
#           kill-and-resume, dead-letter-and-replay, serve-mode
#           drain-and-restart, warm-cache, and observability-equivalence
#           tests, then a bounded (10 s per target) fuzz pass over the
#           journal recovery, isa trace, and lane-sidecar fuzz targets
#
# Everything is hermetic (no network, no external services); the whole
# script runs in a few minutes on a laptop. CI=full additionally runs the
# long-form (non-short) suite.
set -eu

cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> go test -short ./..."
go test -short ./...

echo "==> go test -race (concurrency-bearing packages)"
go test -race -short \
    ./internal/parallel/... \
    ./internal/fsutil/... \
    ./internal/faultinject/... \
    ./internal/checkpoint/... \
    ./internal/telemetry/... \
    ./internal/tracecache/... \
    ./internal/obs/... \
    ./internal/covert/... \
    ./internal/campaign/...

echo "==> go test -race (kill-and-resume + trace cache + observability equivalence)"
go test -race -run 'TestCheckpointResumeEquivalence|TestStudyCheckpointResume|TestTransientFault|TestObservabilityDoesNotPerturbOutputs|TestUnitObserverSeam|TestTraceCacheWarmColdEquivalence|TestTraceCacheKeyMismatchFailsLoudly|TestTraceCacheCorruptEntry|TestTraceCacheLaneOutcomeSidecar|TestWarmFrontEndCache' \
    ./internal/experiments/ ./cmd/experiments/

echo "==> go test -race (dead-letter-and-replay + serve drain-and-restart)"
# The tentpole robustness guarantees: a poisoned campaign completes
# degraded with the unit dead-lettered and -replay restores byte-identical
# outputs; a resident service drained mid-campaign commits a valid partial
# and a restarted service resumes to byte-identical outputs.
go test -race -run 'TestDeadLetterCampaignEquivalence|TestDeadLetterPanickingUnit|TestServeDrainRestartEquivalence' \
    ./cmd/experiments/

echo "==> go test -race (mix-fusion equivalence: clean + mid-mix kill)"
# -short limits the engine-level bitwise check to two mixes (the full
# 16-mix raced sweep takes ~3.5 min and runs under CI=full); the
# campaign-level check covers cold, warm-cache, and a checkpointed
# mid-mix kill-and-resume through the fused path.
go test -race -short -run 'TestMixFusionMatchesOracle|TestMixFusionUnderrunRegenerates' \
    ./internal/experiments/
go test -race -run 'TestMixFusionCampaignOutputsMatchOracle' ./cmd/experiments/

echo "==> bounded fuzz pass (durable-artifact recovery and decoders)"
# Ten seconds of coverage-guided fuzzing per target on top of the seed
# corpora the plain test run replays: journal recovery after arbitrary
# tears, the isa trace round trip, and the lane-outcome sidecar decoder.
# A crasher lands in the package's testdata/fuzz/ directory.
go test -run '^$' -fuzz '^FuzzJournalRecovery$' -fuzztime 10s ./internal/checkpoint/
go test -run '^$' -fuzz '^FuzzTraceRoundTrip$' -fuzztime 10s ./internal/isa/
go test -run '^$' -fuzz '^FuzzLaneSidecar$' -fuzztime 10s ./internal/tracecache/

echo "==> benchjson gate (committed baselines)"
# Committed-baseline deltas on sub-second single-iteration benchmarks
# peak around +37% (shared-tenancy noise; the seconds-scale benchmarks
# stay within ~+-10%), so the default threshold is 40 — tight enough to
# catch a real hot-path regression, loose enough not to trip on the
# measured noise band. See docs/PERFORMANCE.md.
if [ -f BENCH_PR10.json ] && [ -f BENCH_PR9.json ]; then
    go run ./cmd/benchjson -compare -threshold "${BENCH_GATE_THRESHOLD:-40}" BENCH_PR9.json BENCH_PR10.json
fi

if [ "${CI:-}" = "full" ]; then
    echo "==> go test ./... (long suite)"
    go test -timeout 60m ./...
fi

echo "ci: all green"
