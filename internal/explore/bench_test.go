package explore

import (
	"context"
	"os"
	"testing"

	"perfpredict/internal/aggregate"
	"perfpredict/internal/kernels"
	"perfpredict/internal/machine"
)

// benchInputs is the sweep the repository benchmark's explore workload
// runs: the 24-cell POWER1 lattice (dispatch 2–5, FPU 1–3, FXU 1–2)
// over five builtin kernels plus five corpus programs, whose Pareto
// front has several members.
func benchInputs(b *testing.B) (*machine.SpecTemplate, []Kernel) {
	b.Helper()
	var ks []Kernel
	for _, n := range []string{"matmul44", "jacobi", "f2", "f6", "daxpy"} {
		k, err := kernels.Get(n)
		if err != nil {
			b.Fatal(err)
		}
		ks = append(ks, Kernel{Name: n, Source: k.Src})
	}
	for _, n := range []string{"prog034.f", "prog049.f", "prog003.f", "prog006.f", "prog050.f"} {
		src, err := os.ReadFile("../../testdata/corpus/programs/" + n)
		if err != nil {
			b.Fatal(err)
		}
		ks = append(ks, Kernel{Name: n, Source: string(src)})
	}
	return lattice24(), ks
}

func runExploreBench(b *testing.B, warm bool) {
	tpl, kernels := benchInputs(b)
	size, err := tpl.Size()
	if err != nil {
		b.Fatal(err)
	}
	shared := aggregate.NewSegCache()
	if warm {
		if _, err := Run(context.Background(), tpl, kernels, Options{Workers: 4, SegCache: shared}); err != nil {
			b.Fatal(err)
		}
	}
	var front int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seg := shared
		if !warm {
			seg = aggregate.NewSegCache()
		}
		res, err := Run(context.Background(), tpl, kernels, Options{Workers: 4, SegCache: seg})
		if err != nil {
			b.Fatal(err)
		}
		front = len(res.Front)
	}
	b.StopTimer()
	cells := float64(size) * float64(b.N)
	b.ReportMetric(cells/b.Elapsed().Seconds(), "cells/s")
	b.ReportMetric(float64(front), "front")
}

// BenchmarkExploreCold sweeps the lattice with a fresh segment cache
// every iteration: every cell prices every segment.
func BenchmarkExploreCold(b *testing.B) { runExploreBench(b, false) }

// BenchmarkExploreWarm sweeps the same lattice over a pre-warmed
// shared segment cache, the steady state of a serving deployment.
func BenchmarkExploreWarm(b *testing.B) { runExploreBench(b, true) }
