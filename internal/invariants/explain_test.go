package invariants

import (
	"testing"

	"perfpredict/internal/oracle"
	"perfpredict/internal/progen"
	"perfpredict/internal/tetris"
)

// TestCheckExplainSeeds gives the program-level explain suite a
// focused test name, like the other per-kind spot checks.
func TestCheckExplainSeeds(t *testing.T) {
	n := int64(8)
	if testing.Short() {
		n = 2
	}
	for seed := int64(0); seed < n; seed++ {
		for _, v := range CheckExplain(seed) {
			t.Errorf("%s", v)
		}
	}
}

// TestExplainPathDepEdgesAreRealDeps is the differential gate on the
// critical path's structure: every "dep" edge must name a predecessor
// that really is a dependence predecessor under ir's own Deps rules,
// and the producer must finish no later than the consumer.
func TestExplainPathDepEdgesAreRealDeps(t *testing.T) {
	n := int64(150)
	if testing.Short() {
		n = 30
	}
	for seed := int64(0); seed < n; seed++ {
		r := progen.NewRand(seed)
		m, err := progen.GenSpec(r).Machine()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b := progen.GenBlock(r, progen.BlockConfig{AllowControl: true})
		for _, mayAlias := range []bool{false, true} {
			ex, err := tetris.EstimateExplained(m, b, tetris.Options{MayAlias: mayAlias})
			if err != nil {
				t.Fatalf("seed %d mayAlias=%v: %v", seed, mayAlias, err)
			}
			deps := b.Deps(mayAlias)
			for i := 1; i < len(ex.Path); i++ {
				cur, prev := ex.Path[i], ex.Path[i-1]
				if cur.Edge != tetris.EdgeDep {
					continue
				}
				real := false
				for _, j := range deps[cur.Instr] {
					if j == prev.Instr {
						real = true
						break
					}
				}
				if !real {
					t.Errorf("seed %d mayAlias=%v: dep edge #%d -> #%d not in Deps row %v",
						seed, mayAlias, prev.Instr, cur.Instr, deps[cur.Instr])
				}
				if prev.Finish > cur.Finish {
					t.Errorf("seed %d mayAlias=%v: producer #%d finishes at %d after consumer #%d at %d",
						seed, mayAlias, prev.Instr, prev.Finish, cur.Instr, cur.Finish)
				}
			}
		}
	}
}

// TestExplainDepHeightBoundsExactOptimum pins the oracle differential
// directly: on blocks the exact search proves optimal, the explained
// dependence height — a resource-free lower bound — never exceeds the
// optimum's end slot.
func TestExplainDepHeightBoundsExactOptimum(t *testing.T) {
	n := int64(120)
	if testing.Short() {
		n = 25
	}
	proven := 0
	for seed := int64(0); seed < n; seed++ {
		r := progen.NewRand(seed)
		m, err := progen.GenSpec(r).Machine()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b := progen.GenBlock(r, progen.BlockConfig{AllowControl: true})
		for _, mayAlias := range []bool{false, true} {
			topt := tetris.Options{MayAlias: mayAlias}
			exact, err := oracle.Pack(m, b, oracle.Options{
				MayAlias: mayAlias, NodeBudget: 1 << 18, MaxOps: 20,
			})
			if err != nil || !exact.Proven {
				continue
			}
			proven++
			ex, err := tetris.EstimateExplained(m, b, topt)
			if err != nil {
				t.Fatalf("seed %d mayAlias=%v: %v", seed, mayAlias, err)
			}
			if ex.DepHeight > exact.End {
				t.Errorf("seed %d mayAlias=%v: dependence height %d exceeds proven-optimal end %d",
					seed, mayAlias, ex.DepHeight, exact.End)
			}
		}
	}
	if proven == 0 {
		t.Error("oracle proved no sample optimal; the bound was never exercised")
	}
}
