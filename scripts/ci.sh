#!/bin/sh
# CI gate: formatting, static checks, build, race-enabled tests, and a
# single pass over every benchmark (correctness smoke — the benchmarks
# double as the experiment table generators).
#
# Usage: scripts/ci.sh   (from the repository root)
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet"
go vet ./...
# perfbench is its own module, so ./... skips it; vetting it here makes
# an internal API change that breaks the benchmark fail CI.
go vet -C perfbench ./...

echo "== go build"
go build ./...

echo "== machine specs"
# Every embedded builtin spec plus every spec file shipped in the tree
# must parse, validate, cover the lowering op set, and round-trip.
go run ./cmd/speccheck examples/custom-machine/power2f.json examples/custom-machine/power1mem.json

echo "== go test -race"
go test -race ./...

echo "== memory model smoke"
# With the POWER1 hierarchy attached, a streaming (memory-bound)
# kernel must report a memory cost component and a scalar
# (compute-bound) kernel must not.
memdir=$(mktemp -d)
cat >"$memdir/stream.f" <<'EOF'
program stream
  integer i, n
  parameter (n = 1024)
  real a(1025), b(1025)
  do i = 1, n
    a(i) = b(i) + 1.0
  end do
end
EOF
cat >"$memdir/scalar.f" <<'EOF'
program scalar
  integer i, n
  parameter (n = 1024)
  real s
  s = 1.0
  do i = 1, n
    s = s * 0.5 + 1.0
  end do
end
EOF
if ! go run ./cmd/predict -machine examples/custom-machine/power1mem.json "$memdir/stream.f" | grep -q "memory:"; then
	echo "memory-bound kernel reported no memory term" >&2
	rm -rf "$memdir"
	exit 1
fi
if go run ./cmd/predict -machine examples/custom-machine/power1mem.json "$memdir/scalar.f" | grep -q "memory:"; then
	echo "compute-bound kernel reported a memory term" >&2
	rm -rf "$memdir"
	exit 1
fi
rm -rf "$memdir"

echo "== explain smoke"
# The diagnosis must name a bottleneck on the builtin matmul kernel,
# and the one-more-pipe what-if on the 4x4-unrolled multiply must
# reproduce the POWER2F result documented in DESIGN.md: a second FPU
# pipe helps (1.71x there) exactly because the FPU is critical.
exdir=$(mktemp -d)
if ! go run ./cmd/predict -explain -kernel matmul | grep -q "bottleneck:"; then
	echo "explain reported no bottleneck for matmul" >&2
	rm -rf "$exdir"
	exit 1
fi
cat >"$exdir/mm44.f" <<'EOF'
program matmul44
  integer i, j, k, n
  parameter (n = 32)
  real a(32,32), b(32,32), c(32,32)
  do i = 1, n, 4
    do j = 1, n, 4
      do k = 1, n
        c(i,j) = c(i,j) + a(i,k) * b(k,j)
        c(i+1,j) = c(i+1,j) + a(i+1,k) * b(k,j)
        c(i+2,j) = c(i+2,j) + a(i+2,k) * b(k,j)
        c(i+3,j) = c(i+3,j) + a(i+3,k) * b(k,j)
        c(i,j+1) = c(i,j+1) + a(i,k) * b(k,j+1)
        c(i+1,j+1) = c(i+1,j+1) + a(i+1,k) * b(k,j+1)
        c(i+2,j+1) = c(i+2,j+1) + a(i+2,k) * b(k,j+1)
        c(i+3,j+1) = c(i+3,j+1) + a(i+3,k) * b(k,j+1)
        c(i,j+2) = c(i,j+2) + a(i,k) * b(k,j+2)
        c(i+1,j+2) = c(i+1,j+2) + a(i+1,k) * b(k,j+2)
        c(i+2,j+2) = c(i+2,j+2) + a(i+2,k) * b(k,j+2)
        c(i+3,j+2) = c(i+3,j+2) + a(i+3,k) * b(k,j+2)
        c(i,j+3) = c(i,j+3) + a(i,k) * b(k,j+3)
        c(i+1,j+3) = c(i+1,j+3) + a(i+1,k) * b(k,j+3)
        c(i+2,j+3) = c(i+2,j+3) + a(i+2,k) * b(k,j+3)
        c(i+3,j+3) = c(i+3,j+3) + a(i+3,k) * b(k,j+3)
      end do
    end do
  end do
end
EOF
mm44=$(go run ./cmd/predict -explain "$exdir/mm44.f")
if ! echo "$mm44" | grep -q "bottleneck:   FPU"; then
	echo "4x4-unrolled matmul bottleneck is not the FPU:" >&2
	echo "$mm44" >&2
	exit 1
fi
speedup=$(echo "$mm44" | sed -n 's/.*one more FPU pipe.*: .* cycles, \([0-9.]*\)x speedup/\1/p')
if [ -z "$speedup" ] || ! awk "BEGIN { exit !($speedup > 1.0) }"; then
	echo "one-more-FPU what-if did not predict a speedup (got '${speedup:-none}'):" >&2
	echo "$mm44" >&2
	exit 1
fi

echo "== explore smoke"
# Sweeping the POWER1→POWER2F design space over the same 4x4-unrolled
# multiply must rediscover the paper's result: the second FPU pipe is
# worth ~1.71x, so the sweep's cost span across the lattice must
# clear 1.5x. Guards the whole explore path (template expansion,
# batch evaluation, frontier) end to end from the CLI.
cat >"$exdir/template.json" <<'EOF'
{"base_machine": "POWER1", "dispatch": [4, 5], "pipes": {"FPU": [1, 2]}}
EOF
sweep=$(go run ./cmd/predict -explore "$exdir/template.json" "$exdir/mm44.f")
rm -rf "$exdir"
span=$(echo "$sweep" | sed -n 's/^span: *\([0-9.]*\)x.*/\1/p')
if [ -z "$span" ] || ! awk "BEGIN { exit !($span > 1.5) }"; then
	echo "design-space sweep did not rediscover the POWER2F speedup (span '${span:-none}'):" >&2
	echo "$sweep" >&2
	exit 1
fi

echo "== explain overhead guard (1 iteration)"
# BenchmarkExplainGuard self-measures EstimateExplained against plain
# Estimate and fails above its pinned overhead budget.
go test -run '^$' -bench 'Explain' -benchtime 1x ./internal/tetris

echo "== differential fuzz corpus"
# Fixed-seed metamorphic/differential gating corpus: the estimators
# vs the exact oracle and the harness's equivalence invariants. Any
# violation (or an approx/exact ratio above the pinned bound) fails.
go run ./cmd/fuzzcheck -n 300 -seed 1

echo "== benchmarks (1 iteration each)"
go test -run '^$' -bench . -benchtime 1x ./...

echo "== tetris kernel smoke (1 iteration each)"
# Both slot implementations priced once through every suite: catches
# panics/divergence in the hot path without paying for a real run.
go test -run '^$' -bench 'Tetris' -benchtime 1x ./internal/tetris

echo "== benchmark regression report (non-gating)"
sh scripts/bench_regress.sh || echo "bench_regress.sh failed (non-gating)" >&2

echo "== perf trajectory (non-gating)"
sh scripts/bench.sh || echo "bench.sh failed (non-gating)" >&2

echo "== non-test Go lines (non-gating)"
sh scripts/loc.sh || echo "loc.sh failed (non-gating)" >&2

echo "== service load test (non-gating)"
sh scripts/loadtest.sh || echo "loadtest.sh failed (non-gating)" >&2

echo "CI OK"
