package perfpredict

import (
	"strings"
	"testing"

	"perfpredict/internal/lower"
	"perfpredict/internal/tetris"
)

const quadVariant = `
subroutine work(n)
  integer i, j, n
  real a(64,64), out(64)
  do i = 1, n
    do j = 1, n
      out(i) = out(i) + a(i,j)
    end do
  end do
end
`

const heavyLinearVariant = `
subroutine work(n)
  integer i, n
  real a(64,64), out(64)
  do i = 1, n
    out(i) = sqrt(a(i,1)) / 3.0 + a(i,2) * 3.0
  end do
end
`

func TestMultiVersionDepends(t *testing.T) {
	res, err := MultiVersion(quadVariant, heavyLinearVariant, POWER1(),
		map[string]Bound{"n": {Lo: 1, Hi: 64}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != VerdictDepends {
		t.Fatalf("verdict: %v", res.Verdict)
	}
	if res.Variable != "n" || res.Threshold <= 0 {
		t.Fatalf("test: %q %v", res.Variable, res.Threshold)
	}
	if !strings.Contains(res.Source, ".lt.") {
		t.Fatalf("no run-time test in:\n%s", res.Source)
	}
	// The versioned program must be valid F-lite and simulate on both
	// sides of the crossover, tracking the better variant.
	for _, n := range []float64{2, 60} {
		sv, err := Simulate(res.Source, POWER1(), map[string]float64{"n": n})
		if err != nil {
			t.Fatalf("versioned sim at n=%v: %v", n, err)
		}
		sa, _ := Simulate(quadVariant, POWER1(), map[string]float64{"n": n})
		sb, _ := Simulate(heavyLinearVariant, POWER1(), map[string]float64{"n": n})
		best := sa
		if sb < best {
			best = sb
		}
		if float64(sv) > 1.15*float64(best)+25 {
			t.Errorf("n=%v: versioned %d vs best %d (a=%d b=%d)", n, sv, best, sa, sb)
		}
	}
}

func TestMultiVersionOneSided(t *testing.T) {
	fast := "subroutine w(n)\n integer i, n\n real a(4096)\n do i = 1, n\n a(i) = 1.0\n end do\nend\n"
	slow := "subroutine w(n)\n integer i, n\n real a(4096)\n do i = 1, n\n a(i) = sqrt(a(i)) / 3.0\n end do\nend\n"
	res, err := MultiVersion(fast, slow, POWER1(), map[string]Bound{"n": {Lo: 1, Hi: 4096}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != VerdictFirstBetter {
		t.Fatalf("verdict: %v", res.Verdict)
	}
	if res.Source != fast {
		t.Error("one-sided result should return the winning variant unmodified")
	}
}

func TestCrossMachinePredictions(t *testing.T) {
	// One source, three architecture descriptions: predictions must
	// order Scalar1 ≥ POWER1 ≥ SuperScalar2 on overlap-rich code.
	src := `
program p
  integer i, n
  parameter (n = 256)
  real a(256), b(256), c(256)
  do i = 1, n
    c(i) = a(i) * 2.0 + b(i) * 3.0 + 1.0
  end do
end
`
	var preds []float64
	for _, target := range []*Target{Scalar1(), POWER1(), SuperScalar2()} {
		p, err := Predict(src, target)
		if err != nil {
			t.Fatal(err)
		}
		v, err := p.EvalAt(nil)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := Simulate(src, target, nil)
		if err != nil {
			t.Fatal(err)
		}
		ratio := v / float64(sim)
		if ratio < 0.5 || ratio > 2 {
			t.Errorf("%s: pred %v vs sim %d", target.Name, v, sim)
		}
		preds = append(preds, v)
	}
	if !(preds[0] > preds[1] && preds[1] > preds[2]) {
		t.Errorf("machine ordering: %v", preds)
	}
}

func TestAnalyzeBlockAblationOptions(t *testing.T) {
	k := daxpySrc
	full, err := AnalyzeInnermostBlock(k, POWER1())
	if err != nil {
		t.Fatal(err)
	}
	lopt := lower.DefaultOptions()
	lopt.FuseFMA = false
	ablated, err := AnalyzeInnermostBlockWithOptions(k, POWER1(), lopt, tetris.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ablated.Instructions <= full.Instructions {
		t.Errorf("no-FMA block should have more ops: %d vs %d", ablated.Instructions, full.Instructions)
	}
	nodeps, err := AnalyzeInnermostBlockWithOptions(k, POWER1(), lower.DefaultOptions(), tetris.Options{IgnoreDeps: true})
	if err != nil {
		t.Fatal(err)
	}
	if nodeps.Predicted > full.Predicted {
		t.Errorf("ignoring dependences cannot increase the estimate: %d vs %d", nodeps.Predicted, full.Predicted)
	}
}

func TestNoLoopProgramBlock(t *testing.T) {
	src := "program p\n real x, y\n x = 1.0\n y = x * 2.0\nend\n"
	rep, err := AnalyzeInnermostBlock(src, POWER1())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Instructions == 0 {
		t.Error("loop-free program should analyze its body")
	}
	if _, err := AnalyzeInnermostBlock("program p\nend\n", POWER1()); err == nil {
		t.Error("empty program should report no block")
	}
}
