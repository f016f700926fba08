#!/bin/sh
# Perf-trajectory recorder: runs every suite of scripts/bench_suites.sh
# (the search/batch benchmarks, the design-space sweep benchmarks and
# the Tetris kernel microbenchmarks) with -benchmem and writes
# BENCH_<suite>.json (one JSON object per benchmark). Non-gating —
# failures here should not fail CI, only lose a data point.
#
# Every suite runs -count times and records the BEST of each metric
# across runs: the minimum of times, sizes and counts, the maximum of
# rates (units ending in "/s"). On a noisy box the best run is the
# robust "how fast can this code go" statistic, and it is what
# scripts/bench_regress.sh compares fresh runs against.
#
# Usage: scripts/bench.sh [tetris_benchtime] [tetris_count]
#        (from anywhere; defaults 500x, 6)
set -eu

cd "$(dirname "$0")/.."
. scripts/bench_suites.sh

TETRIS_BENCHTIME="${1:-500x}"
TETRIS_COUNT="${2:-6}"

# to_json FILE: convert `BenchmarkName N value unit ...` lines to a
# JSON array, folding repeated names (from -count) to the per-metric
# best: the maximum for rate units (ending in "/s"), the minimum for
# everything else. iterations reports the max seen.
to_json() {
	awk '
	/^Benchmark/ {
		name = $1
		if (!(name in seen)) { order[n++] = name; seen[name] = 1 }
		if ($2 + 0 > iters[name]) iters[name] = $2 + 0
		for (i = 3; i + 1 <= NF; i += 2) {
			unit = $(i + 1); v = $i + 0
			key = name SUBSEP unit
			rate = unit ~ /\/s$/
			if (!(key in val) || (rate && v > val[key]) || (!rate && v < val[key])) val[key] = v
			if (!(name SUBSEP unit in useen)) {
				units[name] = units[name] (units[name] ? SUBSEP : "") unit
				useen[name, unit] = 1
			}
		}
	}
	END {
		print "["
		for (j = 0; j < n; j++) {
			name = order[j]
			printf "  {\"name\":\"%s\",\"iterations\":%d", name, iters[name]
			m = split(units[name], us, SUBSEP)
			for (k = 1; k <= m; k++)
				printf ",\"%s\":%s", us[k], val[name SUBSEP us[k]]
			printf "}%s\n", (j < n - 1) ? "," : ""
		}
		print "]"
	}
	' "$1"
}

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

for suite in $BENCH_SUITES; do
	suite_settings "$suite"
	go test -run '^$' -bench "$pattern" -benchtime "$benchtime" \
		-count "$count" -benchmem "$pkg" | tee "$tmp"
	to_json "$tmp" >"BENCH_$suite.json"
	echo "wrote BENCH_$suite.json"
done
