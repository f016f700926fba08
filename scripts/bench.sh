#!/bin/sh
# Perf-trajectory recorder: runs the search/batch benchmarks, the
# design-space sweep benchmarks, and the Tetris kernel
# microbenchmarks with -benchmem and writes BENCH_optimize.json /
# BENCH_explore.json / BENCH_tetris.json (one JSON object per
# benchmark, plus the raw go-test output next to each in a .txt).
# Non-gating — failures here should not fail CI, only lose a data
# point.
#
# Every suite runs -count times and records the BEST of each metric
# across runs: the minimum of times, sizes and counts, the maximum of
# rates (units ending in "/s"). On a noisy box the best run is the
# robust "how fast can this code go" statistic, and it is what
# scripts/tetris_regress.sh compares fresh runs against.
#
# The search/batch suite runs 3 iterations per run and the explore
# suite 5 sweeps per run, 5 runs each: one search or sweep is tens of
# milliseconds, so a single one is too noisy to record.
#
# Usage: scripts/bench.sh [tetris_benchtime] [tetris_count]
#        (from anywhere; defaults 500x, 6)
set -eu

cd "$(dirname "$0")/.."

tetris_benchtime="${1:-500x}"
tetris_count="${2:-6}"

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

go test -run '^$' -bench 'BenchmarkOptimize|BenchmarkPredictBatch' \
	-benchtime 3x -count 5 -benchmem . | tee "$tmp"
to_json "$tmp" >BENCH_optimize.json
echo "wrote BENCH_optimize.json"

go test -run '^$' -bench 'BenchmarkExplore' -benchtime 5x -count 5 \
	-benchmem ./internal/explore | tee "$tmp"
to_json "$tmp" >BENCH_explore.json
echo "wrote BENCH_explore.json"

go test -run '^$' -bench 'BenchmarkTetris' -benchtime "$tetris_benchtime" \
	-count "$tetris_count" -benchmem ./internal/tetris | tee "$tmp"
to_json "$tmp" >BENCH_tetris.json
echo "wrote BENCH_tetris.json"
