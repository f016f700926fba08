package xform

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"perfpredict/internal/kernels"
	"perfpredict/internal/machine"
	"perfpredict/internal/source"
	"perfpredict/internal/symexpr"
)

// optimizeInputs are the 15 programs perfbench's optimize workload
// searches: five kernels at their nominal arguments and ten corpus
// programs (the second and fourth of each fifth of its ranking).
func optimizeInputs(t *testing.T) (names []string, progs []*source.Program, nominal []map[symexpr.Var]float64) {
	t.Helper()
	for _, n := range []string{"f2", "f6", "matmul", "jacobi", "daxpy"} {
		k, err := kernels.Get(n)
		if err != nil {
			t.Fatal(err)
		}
		p, _, err := k.Parse()
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		nom := map[symexpr.Var]float64{}
		for v, x := range k.Args {
			nom[symexpr.Var(v)] = x
		}
		names, progs, nominal = append(names, n), append(progs, p), append(nominal, nom)
	}
	for _, n := range []string{
		"prog020", "prog036", "prog030", "prog048", "prog049",
		"prog006", "prog028", "prog050", "prog032", "prog035",
	} {
		src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "corpus", "programs", n+".f"))
		if err != nil {
			t.Fatal(err)
		}
		p, err := source.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		names, progs, nominal = append(names, n), append(progs, p), append(nominal, nil)
	}
	return names, progs, nominal
}

// searchView is what a search reports, with the best program as text.
// With more than one worker the cache counters depend on which worker
// fills an entry first, so only a serial search's view keeps them.
type searchView struct {
	Best                              string
	BestCost, InitialCost             float64
	InitialMemory, BestMemory         float64
	Sequence                          []Move
	Explored                          int
	CacheHits, CacheMisses            int
	NestHits, NestMisses, TetrisCalls int
	Bottleneck                        string
	BottleneckUtil                    float64
}

func viewOf(r SearchResult, workers int) searchView {
	v := searchView{
		Best: source.PrintProgram(r.Best), BestCost: r.BestCost, InitialCost: r.InitialCost,
		InitialMemory: r.InitialMemory, BestMemory: r.BestMemory, Sequence: r.Sequence,
		Explored: r.Explored, Bottleneck: r.Bottleneck, BottleneckUtil: r.BottleneckUtil,
	}
	if workers == 1 {
		v.CacheHits, v.CacheMisses = r.CacheHits, r.CacheMisses
		v.NestHits, v.NestMisses, v.TetrisCalls = r.NestHits, r.NestMisses, r.TetrisCalls
	}
	return v
}

// TestWorkspaceSearchMatchesPlain: a search whose workers price
// through search-lifetime workspaces returns what a search pricing
// every candidate with a fresh translator and pooled Tetris scratch
// returns, on perfbench's optimize inputs, on POWER1 and SuperScalar2,
// with one worker and with four. The race build, about six times
// slower, checks the four-worker searches on POWER1, where workers
// share the caches while each prices through its own workspace.
func TestWorkspaceSearchMatchesPlain(t *testing.T) {
	names, progs, nominal := optimizeInputs(t)
	machines, workerCounts := []*machine.Machine{machine.NewPOWER1(), machine.NewSuperScalar2()}, []int{1, 4}
	if raceEnabled {
		machines, workerCounts = machines[:1], workerCounts[1:]
	}
	for _, m := range machines {
		for _, workers := range workerCounts {
			for i, p := range progs {
				opt := SearchOptions{Machine: m, Nominal: nominal[i], Workers: workers}
				run := func(workspaces bool) searchView {
					res, err := search(context.Background(), p, opt, nil, workspaces)
					if err != nil {
						t.Fatalf("%s on %s, %d workers: %v", names[i], m.Name, workers, err)
					}
					return viewOf(res, workers)
				}
				plain, pooled := run(false), run(true)
				if !reflect.DeepEqual(pooled, plain) {
					t.Errorf("%s on %s, %d workers: with workspaces\n%+v\nwithout\n%+v", names[i], m.Name, workers, pooled, plain)
				}
			}
		}
	}
}
