package xform

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"perfpredict/internal/deps"
	"perfpredict/internal/machine"
	"perfpredict/internal/progen"
	"perfpredict/internal/sem"
	"perfpredict/internal/source"
)

// TestInheritedTablesMatchAnalysis is the oracle for what a search
// candidate inherits, over searches of the kernels, the corpus and
// progen seeds. Every state the search pushes was priced with a symbol
// table that must equal sem.Analyze of the state, symbol by symbol.
// From every pushed state, every move is applied as the search applies
// it, reading the state's table, and must give what Apply gives with a
// fresh analysis. Every interchange verdict must equal a fresh
// deps.Analyze, and where the child inherits its parent's table,
// sem.Analyze of the child must succeed and equal it.
func TestInheritedTablesMatchAnalysis(t *testing.T) {
	subjects := moveSubjects(t)
	seeds := 30
	if raceEnabled {
		seeds = 10
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		cfg := progen.ProgramConfig{AllowIf: seed%3 == 0, AllowSubroutine: seed%2 == 0}
		p, err := source.Parse(progen.GenProgram(progen.NewRand(seed), cfg))
		if err != nil {
			t.Fatalf("progen %d: %v", seed, err)
		}
		subjects[fmt.Sprintf("progen %d", seed)] = p
	}
	m := machine.NewPOWER1()
	inherited, interchanges := 0, 0
	for name, p := range subjects {
		if _, err := sem.Analyze(p); err != nil {
			continue // the search rejects it before any move
		}
		type pushed struct {
			prog *source.Program
			tbl  *sem.Table
		}
		var mu sync.Mutex
		var states []pushed
		_, err := search(context.Background(), p, SearchOptions{Machine: m, Workers: 2, MaxNodes: 6},
			func(prog *source.Program, tbl *sem.Table, _ source.Fingerprint) {
				mu.Lock()
				states = append(states, pushed{prog, tbl})
				mu.Unlock()
			})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, st := range states {
			sameTable(t, name+": pushed state", st.tbl, st.prog)
			for _, mv := range Moves(st.prog, SearchOptions{UnrollFactors: []int{2, 4}, TileSizes: []int{16}}) {
				got, err := apply(st.prog, st.tbl, mv)
				want, werr := Apply(st.prog, mv)
				if (err == nil) != (werr == nil) {
					t.Fatalf("%s %v: error %v with the state's table, %v with a fresh analysis", name, mv, err, werr)
				}
				if mv.Kind == "interchange" {
					checkVerdict(t, name, st.prog, st.tbl, mv)
					interchanges++
				}
				if err != nil {
					continue
				}
				if source.FingerprintProgram(got) != source.FingerprintProgram(want) {
					t.Fatalf("%s %v: the search's move gives\n%s\nwant\n%s", name, mv, source.PrintProgram(got), source.PrintProgram(want))
				}
				if tbl := childTable(st.tbl, mv, got); tbl != nil {
					sameTable(t, fmt.Sprintf("%s %v", name, mv), tbl, got)
					inherited++
				}
			}
		}
	}
	t.Logf("%d subjects, %d inherited tables, %d interchange verdicts checked", len(subjects), inherited, interchanges)
	if inherited == 0 || interchanges == 0 {
		t.Fatal("the oracle checked no inherited table or no interchange")
	}
}

// sameTable requires tbl to be the table of p and to hold exactly the
// symbols sem.Analyze(p) finds.
func sameTable(t *testing.T, what string, tbl *sem.Table, p *source.Program) {
	t.Helper()
	want, err := sem.Analyze(p)
	if err != nil {
		t.Fatalf("%s: the table is inherited but sem.Analyze fails: %v", what, err)
	}
	if tbl.Program != p {
		t.Fatalf("%s: the table is bound to another program", what)
	}
	if tbl.Len() != want.Len() {
		t.Fatalf("%s: %d symbols, sem.Analyze finds %d", what, tbl.Len(), want.Len())
	}
	for _, s := range want.Symbols() {
		if got := tbl.Lookup(s.Name); !reflect.DeepEqual(got, s) {
			t.Fatalf("%s: symbol %s is %+v, sem.Analyze finds %+v", what, s.Name, got, s)
		}
	}
}

// checkVerdict requires the search's verdict on interchange move mv of
// p, whose table the search holds as tbl, to equal a fresh
// deps.Analyze under p's own analysis.
func checkVerdict(t *testing.T, name string, p *source.Program, tbl *sem.Table, mv Move) {
	t.Helper()
	outer, err := loopAt(p, mv.Path)
	if err != nil {
		t.Fatal(err)
	}
	inner := outer.Body[0].(*source.DoLoop)
	fresh, err := sem.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	loops := []*source.DoLoop{outer, inner}
	if got, want := deps.InterchangeLegal(deps.Analyze(tbl, loops, inner.Body), 0, 1), deps.InterchangeLegal(deps.Analyze(fresh, loops, inner.Body), 0, 1); got != want {
		t.Fatalf("%s %v: the search's verdict %v, deps.Analyze says %v", name, mv, got, want)
	}
}
