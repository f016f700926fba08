#!/bin/sh
# Non-gating benchmark regression report: for every committed
# BENCH_<suite>.json that scripts/bench.sh writes, reruns that suite
# with the same settings (scripts/bench_suites.sh) and compares the
# fresh min-of-N ns/op, B/op and allocs/op of each benchmark against
# the committed floor. Prints a per-benchmark verdict and ALWAYS exits
# 0: a run over a band is flagged, not failed. Two bands apply:
#   - time: ns/op over 1.25x the floor. Small CI boxes jitter ±15% and
#     more, so this is a trend report, not a gate.
#   - allocation: B/op or allocs/op over 1.05x the floor. Both are
#     deterministic without -race (up to what a GC takes from a
#     sync.Pool), so the band is tight.
# A benchmark over a band is run once more with the same settings and
# stays flagged only if the best of both runs is still over it: on a
# 2-CPU box the 10–35 µs Tetris microbenchmarks spread wider than the
# time band from one run to the next.
#
# The header of each suite's report names the commit its floor
# measured (the "commit" field scripts/bench.sh records).
#
# Usage: scripts/bench_regress.sh [suite ...]   (default: every suite)
#        TETRIS_BENCHTIME / TETRIS_COUNT override the Tetris settings.
set -u

cd "$(dirname "$0")/.."
. scripts/bench_suites.sh

fresh=$(mktemp)
report=$(mktemp)
trap 'rm -f "$fresh" "$report"' EXIT

# compare FLOOR FRESH: fold the fresh output to the min ns/op, B/op and
# allocs/op per name, join with the committed floor, and report the
# ratios; the last line is the count of flagged benchmarks.
compare() {
	awk -v floor="$1" '
	function field(line, unit,    re) {
		re = "\"" unit "\":[0-9.e+-]+"
		if (!match(line, re)) return -1
		return substr(line, RSTART + length(unit) + 3, RLENGTH - length(unit) - 3) + 0
	}
	BEGIN {
		while ((getline line <floor) > 0) {
			if (match(line, /"name":"[^"]+"/)) {
				name = substr(line, RSTART + 8, RLENGTH - 9)
				sub(/-[0-9]+$/, "", name) # GOMAXPROCS suffix
				ns[name] = field(line, "ns/op")
				by[name] = field(line, "B/op")
				al[name] = field(line, "allocs/op")
			}
		}
		close(floor)
	}
	/^Benchmark/ {
		b = $1
		sub(/-[0-9]+$/, "", b)
		for (i = 3; i + 1 <= NF; i += 2) {
			v = $i + 0
			if ($(i + 1) == "ns/op" && (!(b in fns) || v < fns[b])) fns[b] = v
			if ($(i + 1) == "B/op" && (!(b in fby) || v < fby[b])) fby[b] = v
			if ($(i + 1) == "allocs/op" && (!(b in fal) || v < fal[b])) fal[b] = v
		}
		if (!(b in seen)) { order[n++] = b; seen[b] = 1 }
	}
	function ratio(v, base) { return base > 0 ? v / base : 0 }
	END {
		bad = 0
		for (i = 0; i < n; i++) {
			name = order[i]
			if (!(name in ns) || ns[name] <= 0) {
				printf "  %-58s %12.0f ns/op  (no committed floor)\n", name, fns[name]
				continue
			}
			rt = ratio(fns[name], ns[name])
			rb = (name in fby && by[name] > 0) ? ratio(fby[name], by[name]) : 0
			ra = (name in fal && al[name] > 0) ? ratio(fal[name], al[name]) : 0
			tag = (rt > 1.25 || rb > 1.05 || ra > 1.05) ? "  <-- possible regression" : ""
			if (tag != "") bad++
			printf "  %-58s %12.0f ns/op x%.2f  %12.0f B/op x%.2f  %9.0f allocs/op x%.2f%s\n", name, fns[name], rt, fby[name], rb, fal[name], ra, tag
		}
		print bad
	}
	' "$2"
}

flagged=0
for suite in ${*:-$BENCH_SUITES}; do
	floor="BENCH_$suite.json"
	if [ ! -f "$floor" ]; then
		echo "bench_regress: no committed $floor; run scripts/bench.sh first" >&2
		continue
	fi
	suite_settings "$suite" || continue
	measured=$(sed -n 's/.*"commit":"\([^"]*\)".*/\1/p' "$floor" | head -n 1)
	echo "== $suite ($pkg, -bench '$pattern' -benchtime $benchtime -count $count; floor from ${measured:-an unrecorded commit})"
	if ! go test -run '^$' -bench "$pattern" -benchtime "$benchtime" \
		-count "$count" -benchmem "$pkg" >"$fresh" 2>&1; then
		echo "bench_regress: $suite bench run failed (non-gating):" >&2
		cat "$fresh" >&2
		continue
	fi
	compare "$floor" "$fresh" >"$report"
	# Re-run each flagged benchmark alone (one anchored pattern per
	# name level) and compare again over both runs.
	rerun=$(grep -- '<-- possible regression' "$report" | awk '{print $1}')
	if [ -n "$rerun" ]; then
		for name in $rerun; do
			pat=$(printf '%s' "$name" | sed 's|/|$/^|g; s|^|^|; s|$|$|')
			go test -run '^$' -bench "$pat" -benchtime "$benchtime" \
				-count "$count" -benchmem "$pkg" >>"$fresh" 2>&1
		done
		echo "  (re-ran $(echo "$rerun" | wc -l) flagged benchmark(s); best of both runs below)"
		compare "$floor" "$fresh" >"$report"
	fi
	sed '$d' "$report"
	flagged=$((flagged + $(tail -n 1 "$report")))
done

if [ "$flagged" -gt 0 ]; then
	echo "bench_regress: $flagged benchmark(s) above their committed floors' bands (time 1.25x, allocation 1.05x; non-gating)"
else
	echo "bench_regress: all benchmarks within their committed floors' bands (time 1.25x, allocation 1.05x)"
fi
exit 0
