package main

import (
	"fmt"
	"math"

	"perfpredict"
	"perfpredict/internal/kernels"
	"perfpredict/internal/source"
	"perfpredict/internal/xform"
)

// expE4: for several kernels, predict the cost of unrolling the
// innermost loop by factors 1..8 and check the predictor picks the
// same winner the simulator does.
func expE4() error {
	target := perfpredict.POWER1()
	factors := []int{1, 2, 4, 8}
	var rows [][]string
	agree := 0
	total := 0
	for _, name := range []string{"f2", "f3", "f6", "jacobi"} {
		k, err := kernels.Get(name)
		if err != nil {
			return err
		}
		prog, _, err := k.Parse()
		if err != nil {
			return err
		}
		var path xform.Path
		for _, site := range xform.FindLoops(prog) {
			if site.Innermost {
				path = site.Path
				break
			}
		}
		bestPredF, bestSimF := 1, 1
		bestPred, bestSim := math.MaxFloat64, int64(math.MaxInt64)
		cells := []string{name}
		for _, f := range factors {
			variant := prog
			if f > 1 {
				variant, err = xform.Unroll(prog, path, f)
				if err != nil {
					return err
				}
			}
			src := source.PrintProgram(variant)
			pred, err := perfpredict.Predict(src, target)
			if err != nil {
				return err
			}
			pv, err := pred.EvalAt(k.Args)
			if err != nil {
				return err
			}
			sim, err := perfpredict.Simulate(src, target, k.Args)
			if err != nil {
				return err
			}
			if pv < bestPred {
				bestPred, bestPredF = pv, f
			}
			if sim < bestSim {
				bestSim, bestSimF = sim, f
			}
			cells = append(cells, fmt.Sprintf("%.0f/%d", pv, sim))
		}
		match := "✓"
		// Accept near-ties: the predicted winner is fine when its
		// simulated cost is within 5% of the simulated best.
		if bestPredF != bestSimF {
			variant := prog
			if bestPredF > 1 {
				variant, _ = xform.Unroll(prog, path, bestPredF)
			}
			simAtPred, _ := perfpredict.Simulate(source.PrintProgram(variant), target, k.Args)
			if float64(simAtPred) > 1.05*float64(bestSim) {
				match = "✗"
			} else {
				match = "≈"
			}
		}
		if match != "✗" {
			agree++
		}
		total++
		cells = append(cells, fmt.Sprintf("u%d", bestPredF), fmt.Sprintf("u%d", bestSimF), match)
		rows = append(rows, cells)
	}
	header := []string{"kernel"}
	for _, f := range factors {
		header = append(header, fmt.Sprintf("u%d pred/sim", f))
	}
	header = append(header, "pred best", "sim best", "agree")
	table(header, rows)
	fmt.Printf("\npredictor picked a (near-)optimal unroll factor for %d/%d kernels\n", agree, total)
	return nil
}

// expE5: symbolic comparison of a quadratic nest against a heavy linear
// loop — sign regions, the crossover, and validation by simulation
// (Figure 10's cubic-regions machinery in action).
func expE5() error {
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
	target := perfpredict.POWER1()
	p1, err := perfpredict.Predict(quad, target)
	if err != nil {
		return err
	}
	p2, err := perfpredict.Predict(linear, target)
	if err != nil {
		return err
	}
	fmt.Printf("C(quad)   = %s\n", p1.Cost)
	fmt.Printf("C(linear) = %s\n", p2.Cost)
	cmp, err := perfpredict.Compare(p1, p2, map[string]perfpredict.Bound{"n": {Lo: 1, Hi: 64}})
	if err != nil {
		return err
	}
	fmt.Printf("difference = %s\n", cmp.Difference)
	fmt.Printf("verdict: %s; crossover(s): %.1f; quad cheaper on %.0f%% of [1,64]\n",
		cmp.Verdict, cmp.Crossovers, 100*cmp.FirstShare)
	// Simulated crossover.
	actual := -1.0
	for n := 1.0; n <= 64; n++ {
		sq, err := perfpredict.Simulate(quad, target, map[string]float64{"n": n})
		if err != nil {
			return err
		}
		sl, err := perfpredict.Simulate(linear, target, map[string]float64{"n": n})
		if err != nil {
			return err
		}
		if sq > sl {
			actual = n
			break
		}
	}
	fmt.Printf("simulated crossover: n = %.0f\n", actual)
	var rows [][]string
	for _, n := range []float64{4, 8, 16, 32, 64} {
		pv1, _ := p1.EvalAt(map[string]float64{"n": n})
		pv2, _ := p2.EvalAt(map[string]float64{"n": n})
		s1, _ := perfpredict.Simulate(quad, target, map[string]float64{"n": n})
		s2, _ := perfpredict.Simulate(linear, target, map[string]float64{"n": n})
		predWin, simWin := "quad", "quad"
		if pv2 < pv1 {
			predWin = "linear"
		}
		if s2 < s1 {
			simWin = "linear"
		}
		mark := "✓"
		if predWin != simWin {
			mark = "✗"
		}
		rows = append(rows, []string{fmt.Sprint(n),
			fmt.Sprintf("%.0f", pv1), fmt.Sprintf("%.0f", pv2), predWin,
			fmt.Sprint(s1), fmt.Sprint(s2), simWin, mark})
	}
	table([]string{"n", "pred quad", "pred linear", "pred winner", "sim quad", "sim linear", "sim winner", "agree"}, rows)
	return nil
}

// expE6: the §3.3.2 worked example — C(L) = k·C(Bt) + (n−k)·C(Bf) —
// swept over k and validated against simulation.
func expE6() error {
	k, err := kernels.Get("condsplit")
	if err != nil {
		return err
	}
	target := perfpredict.POWER1()
	pred, err := perfpredict.Predict(k.Src, target)
	if err != nil {
		return err
	}
	fmt.Printf("performance expression: %s\n\n", pred.Cost)
	var rows [][]string
	var sumErr float64
	n := 2000.0
	ks := []float64{100, 500, 1000, 1500, 1900}
	for _, kv := range ks {
		pv, err := pred.EvalAt(map[string]float64{"n": n, "k": kv})
		if err != nil {
			return err
		}
		sim, err := perfpredict.Simulate(k.Src, target, map[string]float64{"n": n, "k": kv})
		if err != nil {
			return err
		}
		e := 100 * (pv - float64(sim)) / float64(sim)
		sumErr += math.Abs(e)
		rows = append(rows, []string{fmt.Sprint(kv), fmt.Sprintf("%.0f", pv), fmt.Sprint(sim), fmt.Sprintf("%+.1f%%", e)})
	}
	table([]string{"k (n=2000)", "predicted", "simulated", "error"}, rows)
	fmt.Printf("\nmean |error| = %.1f%%; the expression is exact in k (no probability guess)\n", sumErr/float64(len(ks)))
	return nil
}

// expE8: whole-program aggregated prediction vs interpreter-driven
// dynamic simulation, for every kernel.
func expE8() error {
	target := perfpredict.POWER1()
	var rows [][]string
	var sumRatio float64
	count := 0
	for _, k := range kernels.All() {
		if k.Name == "stencil_dist" {
			continue // communication demo, not a timing kernel
		}
		pred, err := perfpredict.Predict(k.Src, target)
		if err != nil {
			return fmt.Errorf("%s: %w", k.Name, err)
		}
		pv, err := pred.EvalAt(k.Args)
		if err != nil {
			return fmt.Errorf("%s eval: %w", k.Name, err)
		}
		sim, err := perfpredict.Simulate(k.Src, target, k.Args)
		if err != nil {
			return fmt.Errorf("%s sim: %w", k.Name, err)
		}
		ratio := pv / float64(sim)
		sumRatio += ratio
		count++
		rows = append(rows, []string{k.Name, fmt.Sprintf("%.0f", pv), fmt.Sprint(sim), fmt.Sprintf("%.2f", ratio)})
	}
	table([]string{"kernel", "predicted", "simulated", "pred/sim"}, rows)
	fmt.Printf("\nmean pred/sim ratio = %.2f over %d programs\n", sumRatio/float64(count), count)
	return nil
}

// expE15: portability — the same source predicted and validated on
// three architecture descriptions ("adding a new architecture to the
// cost model is a matter of defining the atomic operation mapping and
// the atomic operation cost table", §2.2.1).
func expE15() error {
	targets := []*perfpredict.Target{
		perfpredict.Scalar1(),
		perfpredict.POWER1(),
		perfpredict.SuperScalar2(),
	}
	var rows [][]string
	for _, name := range []string{"f2", "matmul44", "jacobi"} {
		k, err := kernels.Get(name)
		if err != nil {
			return err
		}
		cells := []string{name}
		var cycles []float64
		for _, target := range targets {
			pred, err := perfpredict.Predict(k.Src, target)
			if err != nil {
				return err
			}
			pv, err := pred.EvalAt(k.Args)
			if err != nil {
				return err
			}
			sim, err := perfpredict.Simulate(k.Src, target, k.Args)
			if err != nil {
				return err
			}
			cycles = append(cycles, pv)
			cells = append(cells, fmt.Sprintf("%.0f/%d", pv, sim))
		}
		ok := "✓"
		if !(cycles[0] > cycles[1] && cycles[1] >= cycles[2]) {
			ok = "✗"
		}
		cells = append(cells, ok)
		rows = append(rows, cells)
	}
	table([]string{"kernel", "Scalar1 pred/sim", "POWER1 pred/sim", "SuperScalar2 pred/sim", "ordering"}, rows)
	fmt.Println("\nwider machines predict (and simulate) faster; only the cost tables differ")
	return nil
}
