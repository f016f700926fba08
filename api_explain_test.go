package perfpredict

import (
	"context"
	"math"
	"reflect"
	"testing"
)

const explainMatmul = `
subroutine mm(n)
  integer i, j, k, n
  real a(100,100), b(100,100), c(100,100)
  do i = 1, n
    do j = 1, n
      do k = 1, n
        c(i,j) = c(i,j) + a(i,k) * b(k,j)
      end do
    end do
  end do
end
`

// The report's Cycles must be Predict's EvalAt at the explainer's
// nominal point — explanation diagnoses the same prediction, it does
// not produce a second model.
func TestExplainAgreesWithPredict(t *testing.T) {
	target := POWER1()
	nominal := map[string]float64{"n": 64}
	rep, err := ExplainCtx(context.Background(), explainMatmul, target, ExplainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := Predict(explainMatmul, target)
	if err != nil {
		t.Fatal(err)
	}
	// Explain defaults every non-probability unknown to 100.
	want, err := pred.EvalAt(map[string]float64{"n": 100})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.Cycles-want) > 1e-6*want {
		t.Errorf("Explain cycles %v, Predict at n=100 gives %v", rep.Cycles, want)
	}
	if rep.Bottleneck == "" {
		t.Error("no bottleneck named for a matmul")
	}
	if rep.WhatIf == nil || rep.WhatIf.Speedup < 1 {
		t.Errorf("what-if = %+v, want a present, non-slowing experiment", rep.WhatIf)
	}

	repN, err := ExplainCtx(t.Context(), explainMatmul, target, ExplainOptions{Nominal: nominal, SkipWhatIf: true})
	if err != nil {
		t.Fatal(err)
	}
	wantN, err := pred.EvalAt(nominal)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(repN.Cycles-wantN) > 1e-6*wantN {
		t.Errorf("Explain cycles %v at n=64, Predict gives %v", repN.Cycles, wantN)
	}
}

// Enabling explanation must not perturb prediction: Predict output is
// byte-identical whether or not an Explain ran before, between, after.
func TestExplainInertOnPredict(t *testing.T) {
	target := POWER1()
	before, err := Predict(explainMatmul, target)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExplainCtx(context.Background(), explainMatmul, target, ExplainOptions{}); err != nil {
		t.Fatal(err)
	}
	after, err := Predict(explainMatmul, target)
	if err != nil {
		t.Fatal(err)
	}
	if before.Cost.String() != after.Cost.String() ||
		before.Memory.String() != after.Memory.String() ||
		!reflect.DeepEqual(before.Unknowns, after.Unknowns) {
		t.Errorf("Predict changed after Explain:\nbefore %s\nafter  %s", before.Cost, after.Cost)
	}
}

// Optimize must report the winning variant's bottleneck without
// changing what it picks.
func TestOptimizeReportsBottleneck(t *testing.T) {
	res, err := OptimizeCtx(context.Background(), explainMatmul, POWER1(), map[string]float64{"n": 32}, OptimizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bottleneck == "" {
		t.Fatal("optimize reported no bottleneck for a completed search")
	}
	if res.BottleneckUtil <= 0 || res.BottleneckUtil > 1 {
		t.Errorf("bottleneck utilization %v outside (0,1]", res.BottleneckUtil)
	}
}

// Nest weights evaluate loop bounds with F-lite's arithmetic, the one
// Simulate runs: at n = 7, `do i = 1, n/2*2` truncates n/2 and runs 6
// iterations, `do j = 1, n` runs 7, so two equal bodies weigh 6/13 and
// 7/13 (real division would make both 7).
func TestExplainWeightsUseIntegerDivision(t *testing.T) {
	const src = `
subroutine halves(n)
  integer i, j, n
  real x(100), y(100)
  do i = 1, n/2*2
    y(i) = y(i) + 2.0 * x(i)
  end do
  do j = 1, n
    y(j) = y(j) + 2.0 * x(j)
  end do
end
`
	rep, err := ExplainCtx(t.Context(), src, POWER1(), ExplainOptions{
		Nominal:    map[string]float64{"n": 7},
		SkipWhatIf: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Nests) != 2 {
		t.Fatalf("got %d nests, want 2", len(rep.Nests))
	}
	if a, b := rep.Nests[0].BlockCost, rep.Nests[1].BlockCost; a != b {
		t.Fatalf("equal bodies priced %d and %d", a, b)
	}
	for k, want := range []float64{6.0 / 13, 7.0 / 13} {
		if got := rep.Nests[k].Weight; math.Abs(got-want) > 1e-12 {
			t.Errorf("nest %s weight %v, want %v", rep.Nests[k].Label, got, want)
		}
	}
}
