# Benchmark suite table shared by scripts/bench.sh (which records the
# committed BENCH_<suite>.json floors) and scripts/bench_regress.sh
# (which compares fresh runs against them), so both always run a suite
# with the same settings. Source it; it defines:
#
#   BENCH_SUITES         the suite names, in recording order
#   suite_settings NAME  sets pkg, pattern, benchtime and count
#
# The search/batch suite runs 3 iterations per run and the explore
# suite 5 sweeps per run, 5 runs each: one search or sweep is tens of
# milliseconds, so a single one is too noisy to record. The Tetris
# kernel suite takes its benchtime and count from TETRIS_BENCHTIME and
# TETRIS_COUNT (defaults 500x and 6).

BENCH_SUITES="optimize explore tetris"

suite_settings() {
	case "$1" in
	optimize)
		pkg=. pattern='BenchmarkOptimize|BenchmarkPredictBatch' benchtime=3x count=5 ;;
	explore)
		pkg=./internal/explore pattern='BenchmarkExplore' benchtime=5x count=5 ;;
	tetris)
		pkg=./internal/tetris pattern='BenchmarkTetris'
		benchtime="${TETRIS_BENCHTIME:-500x}" count="${TETRIS_COUNT:-6}" ;;
	*)
		echo "bench_suites: unknown suite $1" >&2
		return 1 ;;
	esac
}
