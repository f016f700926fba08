package sem_test

import (
	"math"
	"testing"

	"perfpredict/internal/interp"
	"perfpredict/internal/sem"
	"perfpredict/internal/source"
)

// TestInterpreterMatchesFoldConst: over the inputs of
// TestFoldConstMatchesOld, every expression FoldConst folds evaluates
// to the same value in the interpreter, once Run has seeded its store
// with the PARAMETER values (the body is left out, so nothing else
// runs). The predictor and the simulator read a constant alike.
func TestInterpreterMatchesFoldConst(t *testing.T) {
	progs := basePrograms(t)
	p, err := source.Parse(foldShapes)
	if err != nil {
		t.Fatal(err)
	}
	progs["foldShapes"] = p
	folded := 0
	for name, p := range progs {
		tbl, err := sem.Analyze(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		decls := *p
		decls.Body = nil
		r := interp.New(&decls, tbl, interp.Options{})
		for _, s := range tbl.Symbols() {
			if s.IsDummy && !s.IsArray() {
				r.SetScalar(s.Name, 8)
			}
		}
		if err := r.Run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, e := range allExprs(p) {
			want, ok := tbl.FoldConst(e)
			if !ok {
				continue
			}
			folded++
			got, err := r.Eval(e)
			if err != nil || math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s: %s folds to %v; the interpreter gives %v, %v", name, source.ExprString(e), want, got, err)
			}
		}
	}
	t.Logf("%d programs, %d folded expressions", len(progs), folded)
	if folded == 0 {
		t.Error("no expression folded")
	}
}

// TestFoldConstAllocatesNothing: FoldConst allocates nothing, whether
// the expression folds or not.
func TestFoldConstAllocatesNothing(t *testing.T) {
	p, err := source.Parse(`program f
  integer k, n
  parameter (k = 7)
  real s, a(10)
  s = k / 2 + mod(k, 3) ** 2 - max(k, 1, 2.0)
  s = k / 0 + n + exp(1.0) + a(k) + 2**(-1) + 0**(-1) + mod(k, 0)
end
`)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := sem.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range allExprs(p) {
		if n := testing.AllocsPerRun(100, func() { tbl.FoldConst(e) }); n != 0 {
			t.Errorf("FoldConst(%s): %v allocations, want 0", source.ExprString(e), n)
		}
	}
}
