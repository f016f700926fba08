package perfpredict

import (
	"context"
	"math"
	"strings"
	"testing"

	"perfpredict/internal/kernels"
)

const daxpySrc = `
subroutine daxpy(n, alpha)
  integer i, n
  real alpha, x(4000), y(4000)
  do i = 1, n
    y(i) = y(i) + alpha * x(i)
  end do
end
`

func TestPredictAndEval(t *testing.T) {
	pred, err := Predict(daxpySrc, POWER1())
	if err != nil {
		t.Fatal(err)
	}
	if pred.Cost.Degree("n") != 1 {
		t.Errorf("cost not linear in n: %v", pred.Cost)
	}
	c1000, err := pred.EvalAt(map[string]float64{"n": 1000})
	if err != nil {
		t.Fatal(err)
	}
	c2000, err := pred.EvalAt(map[string]float64{"n": 2000})
	if err != nil {
		t.Fatal(err)
	}
	if !(c2000 > c1000 && c1000 > 0) {
		t.Errorf("eval: %v, %v", c1000, c2000)
	}
	foundN := false
	for _, u := range pred.Unknowns {
		if u.Name == "n" && u.Kind == "bound" {
			foundN = true
		}
	}
	if !foundN {
		t.Errorf("unknowns: %+v", pred.Unknowns)
	}
}

func TestPredictErrors(t *testing.T) {
	if _, err := Predict("not fortran", POWER1()); err == nil {
		t.Error("bad source accepted")
	}
	if _, err := Predict("program p\n real a(10,10)\n a(1) = 0.0\nend\n", POWER1()); err == nil {
		t.Error("semantic error accepted")
	}
}

func TestPredictionTracksSimulation(t *testing.T) {
	pred, err := Predict(daxpySrc, POWER1())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []float64{200, 2000} {
		p, err := pred.EvalAt(map[string]float64{"n": n})
		if err != nil {
			t.Fatal(err)
		}
		s, err := Simulate(daxpySrc, POWER1(), map[string]float64{"n": n, "alpha": 2.0})
		if err != nil {
			t.Fatal(err)
		}
		ratio := p / float64(s)
		if ratio < 0.5 || ratio > 2 {
			t.Errorf("n=%v: pred %v vs sim %d", n, p, s)
		}
	}
}

func TestSensitivityAPI(t *testing.T) {
	src := `
subroutine p(n, k)
  integer i, j, n, k
  real a(100,100), b(1000)
  do i = 1, n
    do j = 1, n
      a(i,j) = a(i,j) + 1.0
    end do
  end do
  do i = 1, k
    b(i) = 2.0
  end do
end
`
	pred, err := Predict(src, POWER1())
	if err != nil {
		t.Fatal(err)
	}
	sens, err := pred.Sensitivity(map[string]float64{"n": 100, "k": 100}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(sens) < 2 || sens[0].Name != "n" {
		t.Errorf("sensitivity ranking: %+v", sens)
	}
	// Missing nominal for a bound variable errors.
	if _, err := pred.Sensitivity(map[string]float64{"n": 100}, 0.05); err == nil {
		t.Error("missing nominal accepted")
	}
}

func TestCompareAPI(t *testing.T) {
	// Quadratic vs linear: crossover within bounds → Depends.
	quad := `
subroutine p(n)
  integer i, j, n
  real a(64,64)
  do i = 1, n
    do j = 1, n
      a(i,j) = 1.0
    end do
  end do
end
`
	linear := `
subroutine q(n)
  integer i, n
  real b(4096)
  do i = 1, n
    b(i) = b(i) * 2.0 + 1.0
    b(i) = b(i) * 3.0 + 2.0
    b(i) = sqrt(b(i))
  end do
end
`
	p1, err := Predict(quad, POWER1())
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Predict(linear, POWER1())
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := Compare(p1, p2, map[string]Bound{"n": {Lo: 1, Hi: 64}})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Verdict != VerdictDepends {
		t.Fatalf("verdict = %v (diff %v)", cmp.Verdict, cmp.Difference)
	}
	if len(cmp.Crossovers) == 0 {
		t.Fatal("no crossover found")
	}
	// Validate against simulation: find the actual crossover by
	// scanning n, then require the predicted crossover to land within
	// a factor of ~2 of it (the shape claim, not exact cycles).
	x := cmp.Crossovers[0]
	actual := -1.0
	for n := 1.0; n <= 64; n++ {
		sQuad, _ := Simulate(quad, POWER1(), map[string]float64{"n": n})
		sLin, _ := Simulate(linear, POWER1(), map[string]float64{"n": n})
		if sQuad > sLin {
			actual = n
			break
		}
	}
	if actual < 0 {
		t.Fatal("no simulated crossover in range")
	}
	if x < actual/2.5 || x > actual*2.5 {
		t.Errorf("predicted crossover %v vs simulated %v", x, actual)
	}
}

func TestCompareAlwaysBetter(t *testing.T) {
	fast := "subroutine p(n)\n integer i, n\n real a(4096)\n do i = 1, n\n a(i) = 1.0\n end do\nend\n"
	slow := "subroutine q(n)\n integer i, n\n real a(4096)\n do i = 1, n\n a(i) = sqrt(a(i)) / 3.0\n end do\nend\n"
	p1, _ := Predict(fast, POWER1())
	p2, _ := Predict(slow, POWER1())
	cmp, err := Compare(p1, p2, map[string]Bound{"n": {Lo: 1, Hi: 100000}})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Verdict != VerdictFirstBetter {
		t.Errorf("verdict = %v", cmp.Verdict)
	}
	if cmp.FirstShare != 1 {
		t.Errorf("share = %v", cmp.FirstShare)
	}
}

func TestAnalyzeInnermostBlockFig7(t *testing.T) {
	for _, k := range kernels.Figure7Set() {
		t.Run(k.Name, func(t *testing.T) {
			rep, err := AnalyzeInnermostBlock(k.Src, POWER1())
			if err != nil {
				t.Fatal(err)
			}
			if rep.Instructions == 0 || rep.Predicted == 0 || rep.Reference == 0 {
				t.Fatalf("report: %+v", rep)
			}
			// Figure 7's claim: straight-line predictions are accurate.
			if e := math.Abs(rep.ErrorPct()); e > 35 {
				t.Errorf("prediction error %.1f%% (pred %d, ref %d)", e, rep.Predicted, rep.Reference)
			}
			// The op-count baseline overestimates (no overlap).
			if rep.Baseline < rep.Reference {
				t.Errorf("baseline %d below reference %d?", rep.Baseline, rep.Reference)
			}
		})
	}
}

func TestMatmul44SixteenFMAs(t *testing.T) {
	k, _ := kernels.Get("matmul44")
	rep, err := AnalyzeInnermostBlock(k.Src, POWER1())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops["fma"] != 16 {
		t.Errorf("FMA count = %d, want 16 (paper: 'a total of 16 FMA operations')", rep.Ops["fma"])
	}
}

func TestOptimizeAPI(t *testing.T) {
	res, err := OptimizeCtx(context.Background(), daxpySrc, POWER1(), map[string]float64{"n": 1000}, OptimizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.PredictedAfter > res.PredictedBefore {
		t.Errorf("optimize worsened: %v → %v", res.PredictedBefore, res.PredictedAfter)
	}
	if res.Source == "" || res.Explored == 0 {
		t.Errorf("result: %+v", res)
	}
	if !strings.Contains(res.Source, "do i") {
		t.Errorf("transformed source:\n%s", res.Source)
	}
}

func TestBlockReportHelpers(t *testing.T) {
	r := BlockReport{Predicted: 11, Reference: 10, Baseline: 40}
	if math.Abs(r.ErrorPct()-10) > 1e-9 {
		t.Errorf("error pct: %v", r.ErrorPct())
	}
	if r.BaselineFactor() != 4 {
		t.Errorf("baseline factor: %v", r.BaselineFactor())
	}
	z := BlockReport{}
	if z.ErrorPct() != 0 || z.BaselineFactor() != 0 {
		t.Error("zero-reference helpers")
	}
}

func TestVerdictStrings(t *testing.T) {
	for v, want := range map[ComparisonVerdict]string{
		VerdictUnknown: "unknown", VerdictFirstBetter: "first better",
		VerdictEqual: "equal", VerdictSecondBetter: "second better",
		VerdictDepends: "depends on unknowns",
	} {
		if v.String() != want {
			t.Errorf("%d: %q", v, v.String())
		}
	}
}

func TestLibraryAPI(t *testing.T) {
	lib, err := BuildLibrary(map[string]string{"daxpy": daxpySrc}, POWER1())
	if err != nil {
		t.Fatal(err)
	}
	caller := `
subroutine caller(m)
  integer i, m
  real a
  a = 2.0
  do i = 1, m
    call daxpy(128, a)
  end do
end
`
	pred, err := PredictCtx(context.Background(), caller, POWER1(), PredictOptions{Library: lib})
	if err != nil {
		t.Fatal(err)
	}
	if pred.Cost.Degree("m") != 1 {
		t.Fatalf("cost: %v", pred.Cost)
	}
	// The library cost dominates: per-iteration ≈ C_daxpy(128) ≈ 450+.
	at10, err := pred.EvalAt(map[string]float64{"m": 10})
	if err != nil {
		t.Fatal(err)
	}
	if at10 < 10*400 {
		t.Errorf("library call cost not applied: %v at m=10", at10)
	}
	// Without the library, the same caller costs only linkage per call.
	bare, err := Predict(caller, POWER1())
	if err != nil {
		t.Fatal(err)
	}
	bareAt10, _ := bare.EvalAt(map[string]float64{"m": 10})
	if bareAt10 >= at10 {
		t.Errorf("library should add cost: %v vs %v", bareAt10, at10)
	}
}
