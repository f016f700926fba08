package perfpredict

import (
	"context"
	"math"
	"testing"
)

// branchProbe has a bound unknown (n) and a branching probability
// ($p1).
const branchProbe = `
program probe
  integer i, n
  real x(1000), y(1000), s
  s = 0.0
  do i = 1, n
    if (x(i) .gt. s) then
      y(i) = x(i) * 2.0
    else
      y(i) = x(i) / 3.0 + x(i) * x(i) / 7.0
    end if
  end do
end
`

// EvalAt, the optimize ranking and explain evaluate a prediction at
// one point: the caller's values, with a missing probability at 0.5
// (at 100 the ranking would price this program at −377611 cycles).
func TestOneEvaluationPoint(t *testing.T) {
	target := POWER1()
	nominal := map[string]float64{"n": 100}
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b)) }

	pred, err := Predict(branchProbe, target)
	if err != nil {
		t.Fatal(err)
	}
	want, err := pred.EvalAt(nominal)
	if err != nil {
		t.Fatal(err)
	}
	if !near(want, 2479) {
		t.Fatalf("EvalAt = %v, want 2479 (%s at n=100, $p1=0.5)", want, pred.Cost)
	}

	res, err := OptimizeCtx(context.Background(), branchProbe, target, nominal, OptimizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !near(res.PredictedBefore, want) {
		t.Errorf("optimize PredictedBefore = %v, EvalAt = %v", res.PredictedBefore, want)
	}
	if res.PredictedAfter <= 0 {
		t.Errorf("optimize PredictedAfter = %v, want a positive cycle count", res.PredictedAfter)
	}

	rep, err := ExplainCtx(context.Background(), branchProbe, target, ExplainOptions{Nominal: nominal})
	if err != nil {
		t.Fatal(err)
	}
	if !near(rep.Cycles, want) {
		t.Errorf("explain Cycles = %v, EvalAt = %v", rep.Cycles, want)
	}
}
