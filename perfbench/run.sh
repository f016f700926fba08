#!/usr/bin/env bash
# Builds the perfbench binary from the checkout's sources and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload predict-cold --seed 1 --seconds 10 --trace 0
#
# Every build artefact and Go cache goes under .bench_build/ in the
# current directory, so the benchmark reads and writes nothing outside
# the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/perfbench" ]]; then
	echo "perfbench: run from the repository root (no go.mod or perfbench/ here)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off CGO_ENABLED=0

go build -C "$root/perfbench" -o "$out/perfbench" .
exec "$out/perfbench" "$@"
