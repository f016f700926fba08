#!/bin/sh
# Non-test Go line count: one line per package, largest first, then
# the total outside perfbench/ (a separate module, the benchmark
# harness). Lines are physical lines as wc -l counts them, comments
# included, so a PR can quote the before and after of the figure the
# ROADMAP's quality-of-design aim tracks.
#
# Usage: scripts/loc.sh   (from anywhere in the repository)
set -eu

cd "$(dirname "$0")/.."

find . -name '*.go' ! -name '*_test.go' -not -path './perfbench/*' -not -path './.*' |
	sort | xargs wc -l | awk '
$2 != "total" {
	dir = $2
	sub("/[^/]*$", "", dir)
	sub("^\\./?", "", dir)
	if (dir == "") dir = "."
	lines[dir] += $1
	total += $1
}
END {
	for (dir in lines) printf "%7d %s\n", lines[dir], dir | "sort -k1,1nr -k2"
	close("sort -k1,1nr -k2")
	printf "%7d total outside perfbench/\n", total
}'
