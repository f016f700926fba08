package aggregate

import (
	"math"
	"testing"

	"perfpredict/internal/interp"
	"perfpredict/internal/machine"
	"perfpredict/internal/sem"
	"perfpredict/internal/source"
	"perfpredict/internal/symexpr"
)

func estimate(t *testing.T, src string, opt Options) (Result, *source.Program, *sem.Table) {
	t.Helper()
	p, err := source.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	tbl, err := sem.Analyze(p)
	if err != nil {
		t.Fatalf("sem: %v", err)
	}
	e := New(tbl, machine.NewPOWER1(), opt)
	res, err := e.Program(p)
	if err != nil {
		t.Fatalf("aggregate: %v", err)
	}
	return res, p, tbl
}

// simulate runs the program with the interpreter-driven pipeline for a
// dynamic reference cycle count.
func simulate(t *testing.T, p *source.Program, tbl *sem.Table, args map[string]float64) int64 {
	t.Helper()
	r := interp.New(p, tbl, interp.Options{Machine: machine.NewPOWER1()})
	for k, v := range args {
		r.SetScalar(k, v)
	}
	if err := r.Run(); err != nil {
		t.Fatalf("interp: %v", err)
	}
	return r.Cycles()
}

func TestStraightLineProgram(t *testing.T) {
	res, _, _ := estimate(t, `
program p
  real x, y
  x = 1.0
  y = x * 2.0 + 3.0
end
`, DefaultOptions())
	c, ok := res.Cost.IsConst()
	if !ok {
		t.Fatalf("cost not constant: %v", res.Cost)
	}
	if c <= 0 || c > 40 {
		t.Errorf("cost = %v out of sane range", c)
	}
	if len(res.Unknowns) != 0 {
		t.Errorf("unexpected unknowns: %v", res.Unknowns)
	}
}

func TestConstantLoopCost(t *testing.T) {
	res, _, _ := estimate(t, `
program p
  integer i, n
  parameter (n = 100)
  real a(100), b(100)
  do i = 1, n
    b(i) = a(i) * 2.0 + 1.0
  end do
end
`, DefaultOptions())
	c, ok := res.Cost.IsConst()
	if !ok {
		t.Fatalf("cost not constant: %v", res.Cost)
	}
	// ~100 iterations × small body.
	if c < 100 || c > 3000 {
		t.Errorf("cost = %v", c)
	}
}

func TestSymbolicLoopIsLinear(t *testing.T) {
	res, _, _ := estimate(t, `
subroutine p(n)
  integer i, n
  real a(1000), b(1000)
  do i = 1, n
    b(i) = a(i) * 2.0 + 1.0
  end do
end
`, DefaultOptions())
	if res.Cost.Degree("n") != 1 {
		t.Fatalf("cost degree in n = %d: %v", res.Cost.Degree("n"), res.Cost)
	}
	// Unknown registry mentions n.
	found := false
	for _, u := range res.Unknowns {
		if u.Var == "n" {
			found = true
		}
	}
	if !found {
		t.Errorf("unknowns: %+v", res.Unknowns)
	}
}

func TestNestedLoopQuadratic(t *testing.T) {
	res, _, _ := estimate(t, `
subroutine p(n)
  integer i, j, n
  real a(100,100)
  do i = 1, n
    do j = 1, n
      a(i,j) = 1.0
    end do
  end do
end
`, DefaultOptions())
	if res.Cost.Degree("n") != 2 {
		t.Fatalf("degree = %d: %v", res.Cost.Degree("n"), res.Cost)
	}
}

func TestTriangularLoop(t *testing.T) {
	// do i=1,n { do j=1,i { ... } }: cost ~ n²/2.
	res, _, _ := estimate(t, `
subroutine p(n)
  integer i, j, n
  real a(500500)
  do i = 1, n
    do j = 1, i
      a(j) = 1.0
    end do
  end do
end
`, DefaultOptions())
	if res.Cost.Degree("n") != 2 {
		t.Fatalf("degree = %d: %v", res.Cost.Degree("n"), res.Cost)
	}
	// Ratio of n² coefficient to a square loop's should be ~1/2: check
	// by evaluating at two points and fitting.
	c100 := res.Cost.MustEval(map[symexpr.Var]float64{"n": 100})
	c200 := res.Cost.MustEval(map[symexpr.Var]float64{"n": 200})
	ratio := c200 / c100
	if ratio < 3.5 || ratio > 4.5 {
		t.Errorf("quadratic scaling ratio = %v, want ≈ 4", ratio)
	}
}

// The paper's §3.3.2 worked example: do i=1,n { if (i.le.k) Bt else Bf }
// must aggregate to k·C(Bt) + (n−k)·C(Bf) + per-iteration overhead.
func TestLoopIndexConditionSplit(t *testing.T) {
	res, _, _ := estimate(t, `
subroutine p(n, k)
  integer i, n, k
  real t(1000), f(1000)
  do i = 1, n
    if (i .le. k) then
      t(i) = t(i) + 1.0
    else
      f(i) = f(i) / 3.0
    end if
  end do
end
`, DefaultOptions())
	// Cost must be linear in both n and k, with no probability vars.
	if res.Cost.Degree("n") != 1 || res.Cost.Degree("k") != 1 {
		t.Fatalf("degrees: n=%d k=%d (%v)", res.Cost.Degree("n"), res.Cost.Degree("k"), res.Cost)
	}
	for _, u := range res.Unknowns {
		if u.Kind == "probability" {
			t.Errorf("probability var introduced for a loop-index condition: %+v", u)
		}
	}
	// ∂C/∂k must be the branch-cost difference: positive or negative
	// but nonzero, since the branches differ.
	dk := res.Cost.Derivative("k")
	if v, _ := dk.IsConst(); v == 0 {
		t.Errorf("k coefficient is zero: %v", res.Cost)
	}
}

// Unrolling writes the later copies' guards as `i+c REL k`; they are
// the same exact split as `i REL k−c`, never a guessed probability.
// Only the cost of evaluating the condition may differ, and it does
// not depend on k.
func TestLoopIndexOffsetConditionSplit(t *testing.T) {
	prog := func(cond string) string {
		return `
subroutine p(n, k)
  integer i, n, k
  real t(1000), f(1000)
  do i = 1, n
    if (` + cond + `) then
      t(i) = t(i) + 1.0
    else
      f(i) = f(i) / 3.0
    end if
  end do
end
`
	}
	for _, c := range []struct{ offset, plain string }{
		{"(i+1) .le. k", "i .le. (k-1)"},
		{"(2+i) .lt. k", "i .lt. (k-2)"},
		{"(i-3) .gt. k", "i .gt. (k+3)"},
		{"k .ge. (i+1)", "i .le. (k-1)"},
	} {
		got, _, _ := estimate(t, prog(c.offset), DefaultOptions())
		want, _, _ := estimate(t, prog(c.plain), DefaultOptions())
		for _, u := range got.Unknowns {
			if u.Kind == "probability" {
				t.Errorf("%s: probability var introduced: %+v", c.offset, u)
			}
		}
		if d := got.Cost.Sub(want.Cost); d.Degree("k") != 0 || d.MinDegree("k") != 0 {
			t.Errorf("%s: cost %v, %s gives %v: the split differs", c.offset, got.Cost, c.plain, want.Cost)
		}
	}
}

func TestModProbability(t *testing.T) {
	res, _, _ := estimate(t, `
subroutine p(n)
  integer i, n
  real a(1000), b(1000)
  do i = 1, n
    if (mod(i, 4) .eq. 0) then
      a(i) = a(i) + 1.0
    else
      b(i) = 1.0
    end if
  end do
end
`, DefaultOptions())
	for _, u := range res.Unknowns {
		if u.Kind == "probability" {
			t.Errorf("mod condition should use 1/4, not a variable: %+v", u)
		}
	}
	if res.Cost.Degree("n") != 1 {
		t.Errorf("cost: %v", res.Cost)
	}
}

func TestUnknownConditionSymbolicProbability(t *testing.T) {
	res, _, _ := estimate(t, `
subroutine p(n, x)
  integer i, n
  real x, a(1000), b(1000), c(1000)
  do i = 1, n
    if (a(i) .gt. x) then
      b(i) = b(i) + a(i) * 2.0 + 1.0
      c(i) = c(i) + b(i)
    else
      b(i) = 0.0
    end if
  end do
end
`, DefaultOptions())
	var probVars int
	for _, u := range res.Unknowns {
		if u.Kind == "probability" {
			probVars++
		}
	}
	if probVars != 1 {
		t.Errorf("want 1 probability unknown, got %d (%+v)", probVars, res.Unknowns)
	}
}

func TestCloseBranchesSimplified(t *testing.T) {
	res, _, _ := estimate(t, `
subroutine p(n, x)
  integer i, n
  real x, a(1000), b(1000)
  do i = 1, n
    if (a(i) .gt. x) then
      b(i) = a(i) + 1.0
    else
      b(i) = a(i) + 2.0
    end if
  end do
end
`, DefaultOptions())
	// Identical-cost branches: no probability variable should appear.
	for _, u := range res.Unknowns {
		if u.Kind == "probability" {
			t.Errorf("close branches should be averaged: %+v", u)
		}
	}
	_ = res
}

func TestPredictionVsSimulationDaxpy(t *testing.T) {
	src := `
subroutine daxpy(n, alpha)
  integer i, n
  real alpha, x(4000), y(4000)
  do i = 1, n
    y(i) = y(i) + alpha * x(i)
  end do
end
`
	res, p, tbl := estimate(t, src, DefaultOptions())
	for _, n := range []float64{100, 1000, 4000} {
		pred := res.Cost.MustEval(map[symexpr.Var]float64{"n": n})
		sim := float64(simulate(t, p, tbl, map[string]float64{"n": n, "alpha": 2.0}))
		ratio := pred / sim
		if ratio < 0.5 || ratio > 2.0 {
			t.Errorf("n=%v: pred %v vs sim %v (ratio %.2f)", n, pred, sim, ratio)
		}
	}
}

func TestPredictionVsSimulationMatmul(t *testing.T) {
	src := `
program matmul
  integer i, j, k, n
  parameter (n = 24)
  real a(24,24), b(24,24), c(24,24)
  do i = 1, n
    do j = 1, n
      c(i,j) = 0.0
      do k = 1, n
        c(i,j) = c(i,j) + a(i,k) * b(k,j)
      end do
    end do
  end do
end
`
	res, p, tbl := estimate(t, src, DefaultOptions())
	pred, ok := res.Cost.IsConst()
	if !ok {
		t.Fatalf("cost not constant: %v", res.Cost)
	}
	sim := float64(simulate(t, p, tbl, nil))
	ratio := pred / sim
	if ratio < 0.4 || ratio > 2.5 {
		t.Errorf("pred %v vs sim %v (ratio %.2f)", pred, sim, ratio)
	}
}

func TestCondSplitVsSimulation(t *testing.T) {
	src := `
subroutine p(n, k)
  integer i, n, k
  real t(2000), f(2000)
  do i = 1, n
    if (i .le. k) then
      t(i) = t(i) + 1.0
    else
      f(i) = f(i) / 3.0
    end if
  end do
end
`
	res, p, tbl := estimate(t, src, DefaultOptions())
	for _, k := range []float64{100, 1000, 1900} {
		pred := res.Cost.MustEval(map[symexpr.Var]float64{"n": 2000, "k": k})
		sim := float64(simulate(t, p, tbl, map[string]float64{"n": 2000, "k": k}))
		ratio := pred / sim
		if ratio < 0.4 || ratio > 2.5 {
			t.Errorf("k=%v: pred %v vs sim %v (ratio %.2f)", k, pred, sim, ratio)
		}
	}
	// The prediction must move in the right direction with k: branch
	// costs differ, so C(k=100) ≠ C(k=1900).
	lo := res.Cost.MustEval(map[symexpr.Var]float64{"n": 2000, "k": 100})
	hi := res.Cost.MustEval(map[symexpr.Var]float64{"n": 2000, "k": 1900})
	simLo := float64(simulate(t, p, tbl, map[string]float64{"n": 2000, "k": 100}))
	simHi := float64(simulate(t, p, tbl, map[string]float64{"n": 2000, "k": 1900}))
	if (hi-lo)*(simHi-simLo) < 0 {
		t.Errorf("prediction trend (%v→%v) contradicts simulation (%v→%v)", lo, hi, simLo, simHi)
	}
}

func TestOneTimeCostSeparated(t *testing.T) {
	res, _, _ := estimate(t, `
subroutine p(n, alpha)
  integer i, n
  real alpha, x(1000), y(1000)
  do i = 1, n
    y(i) = alpha * x(i)
  end do
end
`, DefaultOptions())
	ot, ok := res.OneTime.IsConst()
	if !ok || ot <= 0 {
		t.Errorf("one-time cost = %v (hoisted alpha load expected)", res.OneTime)
	}
}

func TestStepLoop(t *testing.T) {
	res, _, _ := estimate(t, `
program p
  integer i, n
  parameter (n = 99)
  real a(100)
  do i = 1, n, 2
    a(i) = 1.0
  end do
end
`, DefaultOptions())
	c, ok := res.Cost.IsConst()
	if !ok {
		t.Fatalf("cost: %v", res.Cost)
	}
	// 50 iterations.
	full, _, _ := estimate(t, `
program p
  integer i, n
  parameter (n = 99)
  real a(100)
  do i = 1, n
    a(i) = 1.0
  end do
end
`, DefaultOptions())
	fc, _ := full.Cost.IsConst()
	ratio := fc / c
	if ratio < 1.6 || ratio > 2.4 {
		t.Errorf("step-2 halving: full %v vs stepped %v", fc, c)
	}
}

func TestDegreeGrowsWithNestDepth(t *testing.T) {
	res, _, _ := estimate(t, `
subroutine p(n)
  integer i, j, k, n
  real a(64,64)
  do i = 1, n
    do j = 1, n
      do k = 1, n
        a(1,1) = a(1,1) + 1.0
      end do
    end do
  end do
end
`, DefaultOptions())
	if res.Cost.Degree("n") != 3 {
		t.Errorf("degree = %d: %v", res.Cost.Degree("n"), res.Cost)
	}
}

func TestCondSimplifyErrorBound(t *testing.T) {
	// §3.3.2: when C(Bt) ≈ C(Bf), ignoring the split loses little. The
	// unsimplified reference swaps the averaged branch cost
	// n·(C_t + C_f)/2 for the exact split k·C_t + (n−k)·C_f, with each
	// branch body priced on its own inside the loop. Equal branch costs
	// cancel k from the split itself; only unequal ones show whether
	// the simplification ran.
	for _, br := range []struct{ then, els string }{
		{"t(i) = t(i) + 1.0", "f(i) = f(i) + 2.0"},
		{"f(i) = f(i) + t(i) + x", "f(i) = t(i) + 1.0\n      t(i) = f(i) + 1.0"},
	} {
		src := `
subroutine p(n, k, x)
  integer i, n, k
  real x, t(2000), f(2000)
  do i = 1, n
    if (i .le. k) then
      ` + br.then + `
    else
      ` + br.els + `
    end if
  end do
end
`
		res, p, tbl := estimate(t, src, DefaultOptions())
		if res.Cost.Degree("k") != 0 {
			t.Fatalf("%s / %s: close branches kept the split: %v", br.then, br.els, res.Cost)
		}
		ifs := p.Body[0].(*source.DoLoop).Body[0].(*source.IfStmt)
		loops := []LoopCtx{{Var: "i", Lb: symexpr.Const(1), Ub: symexpr.NewVar("n"), Step: 1}}
		branch := func(body []source.Stmt) float64 {
			r, err := New(tbl, machine.NewPOWER1(), DefaultOptions()).Stmts(body, loops)
			if err != nil {
				t.Fatal(err)
			}
			c, ok := r.Cost.Sub(r.OneTime).IsConst()
			if !ok {
				t.Fatalf("branch cost %v is not constant", r.Cost)
			}
			return c
		}
		ct, cf := branch(ifs.Then), branch(ifs.Else)
		if !closeEnough(ct, cf) {
			t.Fatalf("%s / %s: branch costs %v and %v are not close", br.then, br.els, ct, cf)
		}
		n, k := 2000.0, 700.0
		simp := res.Cost.MustEval(map[symexpr.Var]float64{"n": n})
		ref := simp - n*(ct+cf)/2 + k*ct + (n-k)*cf
		if math.Abs(ref-simp) > 0.15*math.Max(ref, simp) {
			t.Errorf("%s / %s: simplification error too large: split %v vs simplified %v", br.then, br.els, ref, simp)
		}
	}
}

func TestDownwardLoop(t *testing.T) {
	res, p, tbl := estimate(t, `
program p
  integer i, n
  parameter (n = 100)
  real a(100)
  do i = n, 1, -1
    a(i) = real(i)
  end do
end
`, DefaultOptions())
	c, ok := res.Cost.IsConst()
	if !ok {
		t.Fatalf("cost: %v", res.Cost)
	}
	sim := simulate(t, p, tbl, nil)
	ratio := c / float64(sim)
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("downward loop: pred %v vs sim %d", c, sim)
	}
}

func TestEmptyBodyLoop(t *testing.T) {
	res, _, _ := estimate(t, `
program p
  integer i, n
  parameter (n = 100)
  real x
  do i = 1, n
    continue
  end do
  x = 1.0
end
`, DefaultOptions())
	c, ok := res.Cost.IsConst()
	if !ok || c <= 0 {
		t.Errorf("empty-body loop cost: %v", res.Cost)
	}
	// Loop control only: well under 5 cycles per iteration.
	if c > 500 {
		t.Errorf("empty loop overpriced: %v", c)
	}
}

func TestScalarMachineDegenerate(t *testing.T) {
	// On the no-overlap machine the framework must agree with the
	// simulator almost exactly (op-count degeneration, §1.2 inverse).
	src := `
program p
  integer i, n
  parameter (n = 200)
  real a(200), b(200)
  do i = 1, n
    b(i) = a(i) * 2.0 + 1.0
  end do
end
`
	p, err := source.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := sem.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	est := New(tbl, machine.NewScalar1(), DefaultOptions())
	res, err := est.Program(p)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := res.Cost.IsConst()
	r := interp.New(p, tbl, interp.Options{Machine: machine.NewScalar1()})
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	sim := float64(r.Cycles())
	if diff := math.Abs(c-sim) / sim; diff > 0.05 {
		t.Errorf("scalar machine: pred %v vs sim %v (%.1f%%)", c, sim, 100*diff)
	}
}
