#!/bin/sh
# Non-gating benchmark regression report: for every committed
# BENCH_<suite>.json that scripts/bench.sh writes, reruns that suite
# with the same settings (scripts/bench_suites.sh) and compares the
# fresh min-of-N ns/op and B/op of each benchmark against the committed
# floor. Prints a per-benchmark verdict — runs over 1.25x a floor are
# flagged, not failed: small CI boxes jitter ±15% and more, so this is
# a trend report, not a gate — and ALWAYS exits 0.
#
# Usage: scripts/bench_regress.sh [suite ...]   (default: every suite)
#        TETRIS_BENCHTIME / TETRIS_COUNT override the Tetris settings.
set -u

cd "$(dirname "$0")/.."
. scripts/bench_suites.sh

fresh=$(mktemp)
report=$(mktemp)
trap 'rm -f "$fresh" "$report"' EXIT

flagged=0
for suite in ${*:-$BENCH_SUITES}; do
	floor="BENCH_$suite.json"
	if [ ! -f "$floor" ]; then
		echo "bench_regress: no committed $floor; run scripts/bench.sh first" >&2
		continue
	fi
	suite_settings "$suite" || continue
	echo "== $suite ($pkg, -bench '$pattern' -benchtime $benchtime -count $count)"
	if ! go test -run '^$' -bench "$pattern" -benchtime "$benchtime" \
		-count "$count" -benchmem "$pkg" >"$fresh" 2>&1; then
		echo "bench_regress: $suite bench run failed (non-gating):" >&2
		cat "$fresh" >&2
		continue
	fi
	# Fold the fresh run to the min ns/op and B/op per name, join with
	# the committed floor, and report the ratios; the last line is the
	# suite's count of flagged benchmarks.
	awk -v floor="$floor" '
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
			tag = (rt > 1.25 || rb > 1.25) ? "  <-- possible regression" : ""
			if (tag != "") bad++
			printf "  %-58s %12.0f ns/op x%.2f  %12.0f B/op x%.2f%s\n", name, fns[name], rt, fby[name], rb, tag
		}
		print bad
	}
	' "$fresh" >"$report"
	sed '$d' "$report"
	flagged=$((flagged + $(tail -n 1 "$report")))
done

if [ "$flagged" -gt 0 ]; then
	echo "bench_regress: $flagged benchmark(s) above 1.25x their committed floor (non-gating)"
else
	echo "bench_regress: all benchmarks within 1.25x of their committed floors"
fi
exit 0
