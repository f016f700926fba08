#!/bin/sh
# Load test for the prediction service: runs the in-process load
# generator at 2x the admission capacity for a fixed duration and
# prints latency/throughput/shed-rate figures — plus the cold/warm
# result-cache split (cold_rps/warm_rps/warm_speedup: the same
# uniquely keyed requests driven as all-misses, then as all-hits).
# Non-gating in CI — the numbers are a trajectory, not a threshold.
#
# The figures go to a temporary file unless -out names one, so a run
# leaves the committed BENCH_serve.json alone; re-record that floor
# with `scripts/loadtest.sh -out BENCH_serve.json`.
#
# Usage: scripts/loadtest.sh [-out FILE] [extra loadgen flags]
set -eu

cd "$(dirname "$0")/.."

if [ "${1:-}" = "-out" ]; then
	out=$2
	shift 2
else
	out=$(mktemp)
	trap 'rm -f "$out"' EXIT
fi

go run ./cmd/predictd/loadgen -duration 2s -inflight 8 -mult 2 \
	-out "$out" "$@"

cat "$out"
