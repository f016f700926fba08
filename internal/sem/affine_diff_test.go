package sem_test

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"perfpredict/internal/kernels"
	"perfpredict/internal/progen"
	"perfpredict/internal/sem"
	"perfpredict/internal/source"
	"perfpredict/internal/xform"
)

// site is one subscript with the variables of the DO loops around it.
type site struct {
	e        source.Expr
	loopVars map[string]bool
}

// subscriptSites lists every subscript of p, nested ones included, with
// its enclosing loop variables.
func subscriptSites(p *source.Program) []site {
	var out []site
	var expr func(e source.Expr, lv map[string]bool)
	expr = func(e source.Expr, lv map[string]bool) {
		switch x := e.(type) {
		case *source.ArrayRef:
			for _, ix := range x.Idx {
				out = append(out, site{ix, lv})
				expr(ix, lv)
			}
		case *source.IntrinsicCall:
			for _, a := range x.Args {
				expr(a, lv)
			}
		case *source.UnExpr:
			expr(x.X, lv)
		case *source.BinExpr:
			expr(x.L, lv)
			expr(x.R, lv)
		}
	}
	var stmts func(list []source.Stmt, lv map[string]bool)
	stmts = func(list []source.Stmt, lv map[string]bool) {
		for _, s := range list {
			switch x := s.(type) {
			case *source.Assign:
				expr(x.LHS, lv)
				expr(x.RHS, lv)
			case *source.CallStmt:
				for _, a := range x.Args {
					expr(a, lv)
				}
			case *source.IfStmt:
				expr(x.Cond, lv)
				stmts(x.Then, lv)
				stmts(x.Else, lv)
			case *source.DoLoop:
				for _, b := range []source.Expr{x.Lb, x.Ub, x.Step} {
					if b != nil {
						expr(b, lv)
					}
				}
				inner := map[string]bool{x.Var: true}
				for v := range lv {
					inner[v] = true
				}
				stmts(x.Body, inner)
			}
		}
	}
	stmts(p.Body, map[string]bool{})
	return out
}

// walk names one of the five old walks.
type walk string

const (
	walkLower     walk = "lower.affineSubscript"
	walkCache     walk = "cachemodel.affineVar"
	walkComm      walk = "comm.affineVar"
	walkConstPart walk = "comm.constPart"
	walkDeps      walk = "deps.affineOf"
)

// diverging returns the old walks whose answer on e differs from the
// projection of tbl.Affine(e) that replaces it, with both answers.
func diverging(tbl *sem.Table, e source.Expr, loopVars map[string]bool) map[walk]string {
	a, ok := tbl.Affine(e)
	out := map[walk]string{}
	check := func(w walk, old, proj string) {
		if old != proj {
			out[w] = fmt.Sprintf("old %s, form %s", old, proj)
		}
	}

	// lower took a zero coefficient for no variable.
	v, c, d, lok := refLowerSubscript(tbl, e)
	if c == 0 {
		v = ""
	}
	var pv string
	var pc, pd int64
	pok := ok && a.Len() <= 1
	if pok {
		pd = a.Const
		if a.Len() == 1 {
			pv, pc = a.Term(0).Var, a.Term(0).Coeff
		}
	}
	check(walkLower, fmt.Sprint(v, c, d, lok), fmt.Sprint(pv, pc, pd, pok))

	loopVar := func() string {
		if !ok {
			return fmt.Sprint("", 0, false)
		}
		return fmt.Sprint(a.LoopVar(loopVars))
	}
	check(walkCache, fmt.Sprint(refCacheAffineVar(tbl, e, loopVars)), loopVar())
	check(walkComm, fmt.Sprint(refCommAffineVar(tbl, e, loopVars)), loopVar())

	cok := ok
	for i := range a.Len() {
		cok = cok && loopVars[a.Term(i).Var]
	}
	var cd int64
	if cok {
		cd = a.Const
	}
	check(walkConstPart, fmt.Sprint(refConstPart(tbl, e, loopVars)), fmt.Sprint(cd, cok))

	// deps named a non-loop variable "$" + name.
	old, dok := refAffineOf(tbl, e, loopVars)
	proj := map[string]int64{}
	if ok {
		for i := range a.Len() {
			t := a.Term(i)
			if !loopVars[t.Var] {
				t.Var = "$" + t.Var
			}
			proj[t.Var] = t.Coeff
		}
	}
	if !dok {
		old.coeffs = map[string]int64{}
	}
	check(walkDeps, fmt.Sprint(old.coeffs, old.konst, dok), fmt.Sprint(proj, a.Const, ok))
	return out
}

// basePrograms is the corpus, the kernels and progen seeds 0–2999, by
// name.
func basePrograms(t *testing.T) map[string]*source.Program {
	progs := map[string]*source.Program{}
	add := func(name, src string) {
		p, err := source.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		progs[name] = p
	}
	files, err := filepath.Glob("../../testdata/corpus/programs/*.f")
	if err != nil || len(files) == 0 {
		t.Fatalf("corpus: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		add(filepath.Base(f), string(src))
	}
	for _, k := range kernels.All() {
		add("kernel "+k.Name, k.Src)
	}
	for seed := int64(0); seed < 3000; seed++ {
		cfg := progen.ProgramConfig{AllowIf: seed%3 == 0, AllowSubroutine: seed%2 == 0}
		add(fmt.Sprintf("progen %d", seed), progen.GenProgram(progen.NewRand(seed), cfg))
	}
	return progs
}

// diffPrograms is every program the differential runs over: the
// base programs and the one-move xform neighbours of each, by name.
func diffPrograms(t *testing.T) map[string]*source.Program {
	progs := basePrograms(t)
	opt := xform.SearchOptions{UnrollFactors: []int{2, 4}, TileSizes: []int{16}}
	names := make([]string, 0, len(progs))
	for name := range progs {
		names = append(names, name)
	}
	for _, name := range names {
		p := progs[name]
		for _, m := range xform.Moves(p, opt) {
			if q, err := xform.Apply(p, m); err == nil {
				progs[name+" "+m.String()] = q
			}
		}
	}
	return progs
}

// TestAffineMatchesOldWalks: over every subscript of the corpus, the
// kernels, progen seeds 0–2999 and their one-move xform neighbours,
// each projection of (*sem.Table).Affine answers exactly what the walk
// it replaced answered.
func TestAffineMatchesOldWalks(t *testing.T) {
	progs := diffPrograms(t)
	sites := 0
	for name, p := range progs {
		tbl, err := sem.Analyze(p)
		if err != nil {
			continue // a move may produce a program sem rejects; it is never priced
		}
		for _, s := range subscriptSites(p) {
			sites++
			for w, msg := range diverging(tbl, s.e, s.loopVars) {
				t.Errorf("%s: %s on %s: %s", name, w, source.ExprString(s.e), msg)
			}
		}
	}
	t.Logf("%d programs, %d subscript sites", len(progs), sites)
}

// handProgram declares loop variables i and j, a non-loop integer
// scalar n, a PARAMETER k = 8 and a real scalar r, and reads a(sub)
// inside do i / do j.
func handProgram(sub string) string {
	return `program hand
  integer i, j, n, k
  parameter (k = 8)
  real a(100), s, r
  do i = 1, 10
    do j = 1, 10
      s = a(` + sub + `)
    end do
  end do
end
`
}

// TestAffineDivergences pins the only subscripts on which the form's
// projections answer differently from the old walks. In every case the
// form gives the exact affine value:
//
//  1. cancelling variables, such as i + j - j: the old walks that kept
//     at most one variable said not-affine (comm.constPart did so when
//     a non-loop scalar cancelled); every walk now says i;
//  2. zero coefficients: comm.affineVar kept i with coefficient 0 from
//     i - i + 1, and both affineVars kept it from 0*i; now there is no
//     variable;
//  3. constant sub-expressions deps did not fold, such as k/2 + i,
//     mod(k,3) + j and 2**(-1) + i with k a PARAMETER: deps said
//     not-affine, which made the dependence conservative; now they are
//     i + 4, j + 2 and i.
//
// No integer subscript folds to a fraction: integer division truncates
// and an integer power with a negative exponent folds to an integer
// (2**(-1) is 0), so every walk that folds agrees with the form there.
func TestAffineDivergences(t *testing.T) {
	cases := []struct {
		sub     string
		class   int
		diverge []walk
	}{
		{"i + j - j", 1, []walk{walkLower, walkCache, walkComm}},
		{"i - j + j + 1", 1, []walk{walkLower, walkCache, walkComm}},
		{"i + n - n", 1, []walk{walkLower, walkConstPart}},
		{"i - i + 1", 2, []walk{walkComm}},
		{"0*i + j", 2, []walk{walkCache, walkComm}},
		{"i*0", 2, []walk{walkCache, walkComm}},
		{"k/2 + i", 3, []walk{walkDeps}},
		{"mod(k,3) + j", 3, []walk{walkDeps}},
		{"int(k) - 1", 3, []walk{walkDeps}},
		{"2**(-1) + i", 3, []walk{walkDeps}},
		// No divergence.
		{"i", 0, nil},
		{"2*(i+1) - 1", 0, nil},
		{"n*2 + i", 0, nil},
		{"i + 1 + 1 + 1", 0, nil},
		{"-(j - k)", 0, nil},
		{"i*j", 0, nil},
		{"i/2", 0, nil},
		{"int(r)", 0, nil},
		{"i + j", 0, nil},
		{"k", 0, nil},
	}
	for _, c := range cases {
		p, err := source.Parse(handProgram(c.sub))
		if err != nil {
			t.Fatalf("%s: %v", c.sub, err)
		}
		tbl, err := sem.Analyze(p)
		if err != nil {
			t.Fatalf("%s: %v", c.sub, err)
		}
		sites := subscriptSites(p)
		if len(sites) != 1 {
			t.Fatalf("%s: %d subscript sites, want 1", c.sub, len(sites))
		}
		got := diverging(tbl, sites[0].e, sites[0].loopVars)
		var names []string
		for w := range got {
			names = append(names, string(w))
		}
		slices.Sort(names)
		want := make([]string, len(c.diverge))
		for i, w := range c.diverge {
			want[i] = string(w)
		}
		slices.Sort(want)
		if !slices.Equal(names, want) {
			var detail []string
			for _, w := range names {
				detail = append(detail, fmt.Sprintf("%s: %s", w, got[walk(w)]))
			}
			t.Errorf("%s (class %d): diverging walks %v, want %v\n%s", c.sub, c.class, names, want, strings.Join(detail, "\n"))
		}
	}
}
