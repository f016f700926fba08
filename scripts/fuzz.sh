#!/bin/sh
# Long-fuzz trajectory recorder: a deep fuzzcheck pass (default 5000
# seeds) plus a short native go-fuzz burst on each fuzz target, writing
# BENCH_fuzz.json (corpus size, oracle-proven counts, max approx/exact
# ratio, violation counts). Non-gating — failures here should not fail
# CI, only lose a data point; the gating corpus runs in scripts/ci.sh.
#
# Usage: scripts/fuzz.sh [n] [seed] [fuzztime]   (from anywhere)
set -eu

cd "$(dirname "$0")/.."

n="${1:-5000}"
seed="${2:-1}"
fuzztime="${3:-20s}"

go run ./cmd/fuzzcheck -n "$n" -seed "$seed" -v -json BENCH_fuzz.json

for spec in ./internal/invariants/:FuzzBlockInvariants \
	./internal/invariants/:FuzzSpecJSON ./internal/invariants/:FuzzSpecTemplate \
	./internal/tetris/:FuzzSlotOccupancy ./internal/source/:FuzzParse; do
	pkg=${spec%%:*} target=${spec#*:}
	go test "$pkg" -run "$target" -fuzz "$target" \
		-fuzztime "$fuzztime" || echo "fuzz.sh: $target found a failure (see $pkg/testdata/fuzz)" >&2
done
