package tetris_test

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"perfpredict/internal/ir"
	"perfpredict/internal/lower"
	"perfpredict/internal/machine"
	"perfpredict/internal/sem"
	"perfpredict/internal/source"
	"perfpredict/internal/tetris"
)

var corpusDir = filepath.Join("..", "..", "testdata", "corpus")

// goldenTargets returns the eight machines of the corpus goldens: the
// three builtins and the five generated spec files.
func goldenTargets(t *testing.T) []*machine.Machine {
	t.Helper()
	var out []*machine.Machine
	for _, n := range machine.Names() {
		m, err := machine.Lookup(n)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, m)
	}
	specs, err := filepath.Glob(filepath.Join(corpusDir, "specs", "*.json"))
	if err != nil || len(specs) != 5 {
		t.Fatalf("want 5 corpus specs, got %d (%v)", len(specs), err)
	}
	for _, f := range specs {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := machine.ParseSpec(data)
		if err != nil {
			t.Fatal(err)
		}
		m, err := sp.Machine()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, m)
	}
	return out
}

// corpusBlock is one lowered block with the register chain of its
// promoted accumulators (nil for blocks outside a loop body).
type corpusBlock struct {
	name  string
	blk   *ir.Block
	chain map[ir.Reg]ir.Reg
}

// lowerCorpus lowers every maximal straight-line run and every branch
// condition of every corpus program for m: each Body, Pre, PerEntry
// and Post block aggregation would price.
func lowerCorpus(t *testing.T, m *machine.Machine) []corpusBlock {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(corpusDir, "programs", "*.f"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus programs (%v)", err)
	}
	var out []corpusBlock
	add := func(name string, lw *lower.Lowered, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var chain map[ir.Reg]ir.Reg
		for _, pv := range lw.Promoted {
			if pv.InReg != ir.NoReg && pv.OutReg != ir.NoReg {
				if chain == nil {
					chain = map[ir.Reg]ir.Reg{}
				}
				chain[pv.InReg] = pv.OutReg
			}
		}
		for _, b := range []*ir.Block{lw.Body, lw.Pre, lw.PerEntry, lw.Post} {
			if b != nil && len(b.Instrs) > 0 {
				out = append(out, corpusBlock{name: name, blk: b, chain: chain})
			}
		}
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := source.Parse(string(data))
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := sem.Analyze(prog)
		if err != nil {
			t.Fatal(err)
		}
		tr := lower.New(tbl, m, lower.DefaultOptions())
		name := filepath.Base(f)
		var walk func(list []source.Stmt, vars []string)
		walk = func(list []source.Stmt, vars []string) {
			var run []source.Stmt
			flush := func() {
				if len(run) > 0 {
					lw, err := tr.Body(run, vars)
					add(name, lw, err)
					run = nil
				}
			}
			for _, s := range list {
				switch x := s.(type) {
				case *source.DoLoop:
					flush()
					walk(x.Body, append(slices.Clip(vars), x.Var))
				case *source.IfStmt:
					flush()
					lw, err := tr.Condition(x.Cond, vars)
					add(name, lw, err)
					walk(x.Then, vars)
					walk(x.Else, vars)
				case *source.ReturnStmt:
					flush()
				default:
					run = append(run, s)
				}
			}
			flush()
		}
		walk(prog.Body, nil)
	}
	return out
}

// chainedReplicate is the reference steady-state block: Replicate's
// fresh copies with each chained register of copy k rewired to copy
// k−1's result.
func chainedReplicate(b *ir.Block, iters int, chain map[ir.Reg]ir.Reg) *ir.Block {
	rep := tetris.Replicate(b, iters)
	stride := ir.Reg(b.MaxReg() + 1)
	n := len(b.Instrs)
	for it := 1; it < iters; it++ {
		off, prev := ir.Reg(it)*stride, ir.Reg(it-1)*stride
		for i := it * n; i < (it+1)*n; i++ {
			for k, s := range rep.Instrs[i].Srcs {
				if s == ir.NoReg {
					continue
				}
				if out, ok := chain[s-off]; ok && out != ir.NoReg {
					rep.Instrs[i].Srcs[k] = out + prev
				}
			}
		}
	}
	return rep
}

// TestCostOnlyMatchesEstimateOnCorpus: for every block lowered from
// the corpus on the eight golden targets, the cost-only estimate
// equals Estimate's Cost, Start and End and carries no placement or
// shape, and the pooled steady-state estimate equals pricing
// Replicate's copies with Estimate, with and without the chained
// accumulators.
func TestCostOnlyMatchesEstimateOnCorpus(t *testing.T) {
	opt := tetris.Options{}
	blocks := 0
	for _, m := range goldenTargets(t) {
		for _, cb := range lowerCorpus(t, m) {
			blocks++
			full, ferr := tetris.Estimate(m, cb.blk, opt)
			cost, cerr := tetris.EstimateCost(m, cb.blk, opt)
			if (ferr == nil) != (cerr == nil) {
				t.Fatalf("%s on %s: Estimate error %v, EstimateCost error %v", cb.name, m.Name, ferr, cerr)
			}
			if ferr != nil {
				continue
			}
			if cost.Cost != full.Cost || cost.Start != full.Start || cost.End != full.End {
				t.Errorf("%s on %s: cost-only (%d, %d..%d), Estimate (%d, %d..%d)",
					cb.name, m.Name, cost.Cost, cost.Start, cost.End, full.Cost, full.Start, full.End)
			}
			if cost.PlaceTime != nil || cost.Shape.First != nil || cost.Shape.Height != 0 {
				t.Errorf("%s on %s: cost-only result carries a placement or shape", cb.name, m.Name)
			}
			for _, chain := range []map[ir.Reg]ir.Reg{nil, cb.chain} {
				const iters = 4
				per, total, err := tetris.SteadyStateChained(m, cb.blk, opt, iters, chain)
				if err != nil {
					t.Fatalf("%s on %s: %v", cb.name, m.Name, err)
				}
				ref, err := tetris.Estimate(m, chainedReplicate(cb.blk, iters, chain), opt)
				if err != nil {
					t.Fatal(err)
				}
				if total != ref.Cost || per != float64(ref.Cost)/iters {
					t.Errorf("%s on %s (chain %v): pooled steady state %d (%.2f/iter), Replicate+Estimate %d",
						cb.name, m.Name, chain, total, per, ref.Cost)
				}
			}
		}
	}
	if blocks < 500 {
		t.Errorf("only %d corpus blocks checked", blocks)
	}
	t.Logf("%d blocks on 8 targets", blocks)
}
