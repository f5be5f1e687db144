#!/usr/bin/env bash
# Builds the benchmark and cmd/experiments from this checkout and runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload fig11-cold --seed 1 --seconds 6 --trace 0
#
# Every build and run artifact (Go build cache, binaries, scratch stores,
# span files) stays under .bench_build in the checkout. The last line of
# standard output is the JSON result.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/experiments" || ! -d "$root/internal" ]]; then
	echo "perfbench: $root holds no untangle source tree to build" >&2
	exit 2
fi

workload="" seed="" seconds="" trace=""
while [[ $# -gt 0 ]]; do
	case "$1" in
	--workload) workload=$2; shift 2 ;;
	--seed) seed=$2; shift 2 ;;
	--seconds) seconds=$2; shift 2 ;;
	--trace) trace=$2; shift 2 ;;
	*) echo "perfbench: unknown argument $1" >&2; exit 2 ;;
	esac
done
if [[ -z "$workload" || -z "$seed" || -z "$seconds" || -z "$trace" ]]; then
	echo "usage: run.sh --workload NAME --seed N --seconds S --trace 0|1" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
export GOWORK=off GOTOOLCHAIN=local GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .) >&2
go build -o "$build/bin/experiments" ./cmd/experiments >&2

exec "$build/bin/perfbench" \
	-workload "$workload" -seed "$seed" -seconds "$seconds" -trace "$trace" \
	-experiments "$build/bin/experiments" \
	-work "$build/work" -spans "$build/spans" \
	-digests "$root/perfbench/digests.json"
