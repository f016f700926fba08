package perfpredict

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"perfpredict/internal/kernels"
)

// optimizeBytesBound is the most bytes one restructuring search may
// allocate on average over perfbench's optimize inputs on POWER1 with
// one worker. Growing a translator and Tetris scratch from empty for
// every candidate, the search allocated 5.2 MB; pricing through one
// workspace per worker for the whole search, about 2.6 MB; diagnosing
// the winner's nests without pricing it again, 2.27–2.60 MB (most runs
// 2.28–2.50); memoising digests only, sharing the bounds unroll and
// distribute copy, one translator per diagnosis and sorting moves by
// keys built once, 1.83–2.11 MB (most runs 1.94–1.96); inheriting
// symbol tables, testing interchange without rendering and keeping one
// translator across targets, 1.62–1.90 MB (most runs 1.62–1.78). The
// bound is about the usual figure plus 10–15%.
const optimizeBytesBound = 2_100_000

// TestOptimizeBytesFloor pins the allocation floor of a search: the
// five kernels at their nominal arguments and the ten corpus programs
// perfbench's optimize workload searches, each with fresh caches, as
// that workload does. Under -race, sync.Pool drops pooled workspaces at
// random and the detector adds its own allocations, so the race build
// checks only that every search succeeds and logs the figure.
func TestOptimizeBytesFloor(t *testing.T) {
	type input struct {
		src     string
		nominal map[string]float64
	}
	var inputs []input
	for _, n := range []string{"f2", "f6", "matmul", "jacobi", "daxpy"} {
		k, err := kernels.Get(n)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{k.Src, k.Args})
	}
	for _, n := range []string{
		"prog020", "prog036", "prog030", "prog048", "prog049",
		"prog006", "prog028", "prog050", "prog032", "prog035",
	} {
		src, err := os.ReadFile(filepath.Join("testdata", "corpus", "programs", n+".f"))
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{src: string(src)})
	}
	target := POWER1()
	pass := func() {
		for _, in := range inputs {
			_, err := OptimizeCtx(context.Background(), in.src, target, in.nominal, OptimizeOptions{
				Workers: 1, SegCache: NewSegmentCache(), NestCache: NewNestCache(),
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	pass() // warm: first-use tables and pools
	const rounds = 2
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range rounds {
		pass()
	}
	runtime.ReadMemStats(&after)
	perSearch := float64(after.TotalAlloc-before.TotalAlloc) / float64(rounds*len(inputs))
	t.Logf("%.0f bytes per search (bound %d)", perSearch, optimizeBytesBound)
	if !raceEnabled && perSearch > optimizeBytesBound {
		t.Errorf("a search allocates %.0f bytes on average, above the %d-byte floor", perSearch, optimizeBytesBound)
	}
}
