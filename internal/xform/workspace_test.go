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

// searchView is what a search reports, with the best program as text,
// less the cache counters, which in a parallel search depend on which
// worker fills an entry first.
type searchView struct {
	Best                      string
	BestCost, InitialCost     float64
	InitialMemory, BestMemory float64
	Sequence                  []Move
	Explored                  int
	Bottleneck                string
	BottleneckUtil            float64
}

func viewOf(r SearchResult) searchView {
	return searchView{
		Best: source.PrintProgram(r.Best), BestCost: r.BestCost, InitialCost: r.InitialCost,
		InitialMemory: r.InitialMemory, BestMemory: r.BestMemory, Sequence: r.Sequence,
		Explored: r.Explored, Bottleneck: r.Bottleneck, BottleneckUtil: r.BottleneckUtil,
	}
}

// TestSearchOneWorkerMatchesFour: a search whose four workers share
// the caches, each pricing through a workspace of its own, returns
// what a serial search returns, on perfbench's optimize inputs, on
// POWER1 and SuperScalar2. The race build, about six times slower,
// checks POWER1 only.
func TestSearchOneWorkerMatchesFour(t *testing.T) {
	names, progs, nominal := optimizeInputs(t)
	machines := []*machine.Machine{machine.NewPOWER1(), machine.NewSuperScalar2()}
	if raceEnabled {
		machines = machines[:1]
	}
	for _, m := range machines {
		for i, p := range progs {
			run := func(workers int) searchView {
				res, err := SearchCtx(context.Background(), p, SearchOptions{Machine: m, Nominal: nominal[i], Workers: workers})
				if err != nil {
					t.Fatalf("%s on %s, %d workers: %v", names[i], m.Name, workers, err)
				}
				return viewOf(res)
			}
			if serial, parallel := run(1), run(4); !reflect.DeepEqual(parallel, serial) {
				t.Errorf("%s on %s: four workers\n%+v\none\n%+v", names[i], m.Name, parallel, serial)
			}
		}
	}
}
