package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"perfpredict"
	"perfpredict/internal/aggregate"
	"perfpredict/internal/kernels"
	"perfpredict/internal/lower"
	"perfpredict/internal/machine"
	"perfpredict/internal/source"
	"perfpredict/internal/tetris"
	"perfpredict/internal/xform"
)

// expE9: best-first transformation search (§3.2) on representative
// programs, with the found sequence validated by simulation.
func expE9() error {
	target := perfpredict.POWER1()
	var rows [][]string
	for _, name := range []string{"f2", "f6", "matmul"} {
		k, err := kernels.Get(name)
		if err != nil {
			return err
		}
		prog, _, err := k.Parse()
		if err != nil {
			return err
		}
		res, err := xform.SearchCtx(context.Background(), prog, xform.SearchOptions{
			Machine:  machine.NewPOWER1(),
			MaxNodes: 25,
			MaxDepth: 2,
		})
		if err != nil {
			return err
		}
		seq := make([]string, 0, len(res.Sequence))
		for _, mv := range res.Sequence {
			seq = append(seq, mv.String())
		}
		simBefore, err := perfpredict.Simulate(k.Src, target, k.Args)
		if err != nil {
			return err
		}
		simAfter, err := perfpredict.Simulate(source.PrintProgram(res.Best), target, k.Args)
		if err != nil {
			return err
		}
		rows = append(rows, []string{
			name,
			strings.Join(seq, " "),
			fmt.Sprintf("%.0f→%.0f (%.2fx)", res.InitialCost, res.BestCost, res.InitialCost/res.BestCost),
			fmt.Sprintf("%d→%d (%.2fx)", simBefore, simAfter, float64(simBefore)/float64(simAfter)),
			fmt.Sprint(res.Explored),
		})
	}
	table([]string{"program", "sequence found", "predicted gain", "simulated gain", "states"}, rows)
	return nil
}

// expE11: sensitivity analysis ranks the variables worth a run-time
// test (§3.4) and the ranking is checked against the actual simulated
// variance per variable.
func expE11() error {
	src := `
subroutine p(n, k, m)
  integer i, j, n, k, m
  real a(128,128), b(4000), c(4000)
  do i = 1, n
    do j = 1, n
      a(i,j) = a(i,j) + 1.0
    end do
  end do
  do i = 1, k
    b(i) = b(i) * 2.0
  end do
  do i = 1, m
    c(i) = sqrt(c(i))
  end do
end
`
	target := perfpredict.POWER1()
	pred, err := perfpredict.Predict(src, target)
	if err != nil {
		return err
	}
	nominal := map[string]float64{"n": 100, "k": 2000, "m": 200}
	fmt.Printf("C = %s at %v\n\n", pred.Cost, nominal)
	sens, err := pred.Sensitivity(nominal, 0.10)
	if err != nil {
		return err
	}
	// Actual swing: simulate at ±10% per variable.
	simSwing := func(v string) float64 {
		up := map[string]float64{}
		down := map[string]float64{}
		for kk, vv := range nominal {
			up[kk], down[kk] = vv, vv
		}
		up[v] = nominal[v] * 1.10
		down[v] = nominal[v] * 0.90
		su, err1 := perfpredict.Simulate(src, target, up)
		sd, err2 := perfpredict.Simulate(src, target, down)
		if err1 != nil || err2 != nil {
			return -1
		}
		return float64(su - sd)
	}
	var rows [][]string
	for rank, s := range sens {
		rows = append(rows, []string{
			fmt.Sprint(rank + 1), s.Name,
			fmt.Sprintf("%.0f", s.Swing),
			fmt.Sprintf("%.0f", simSwing(s.Name)),
		})
	}
	table([]string{"rank", "variable", "predicted swing (±10%)", "simulated swing"}, rows)
	fmt.Println("\nrun-time tests would target the top-ranked variable(s)")
	return nil
}

// expE13: incremental update (§3.3.1) — re-predicting a set of program
// variants with one shared segment cache against cold per-variant
// prediction.
func expE13() error {
	k, err := kernels.Get("matmul")
	if err != nil {
		return err
	}
	prog, _, err := k.Parse()
	if err != nil {
		return err
	}
	opt := xform.SearchOptions{Machine: machine.NewPOWER1()}
	opt.UnrollFactors = []int{2, 4, 8}
	opt.TileSizes = []int{8, 16}

	// Build the variant set: the original plus every single-move
	// variant (the states a search pass would price).
	variants := []*source.Program{prog}
	for _, mv := range xform.Moves(prog, opt) {
		if v, err := xform.Apply(prog, mv); err == nil {
			variants = append(variants, v)
		}
	}

	runOnce := func(shared bool) (time.Duration, int, int) {
		var cache *aggregate.SegCache
		if shared {
			cache = aggregate.NewSegCache()
		}
		hits, misses := 0, 0
		start := time.Now()
		for _, v := range variants {
			c := cache
			if !shared {
				c = aggregate.NewSegCache()
			}
			if _, err := xform.Predict(v, opt, c); err != nil {
				panic(err)
			}
			if !shared {
				h, m := c.Stats()
				hits += h
				misses += m
			}
		}
		el := time.Since(start)
		if shared {
			hits, misses = cache.Stats()
		}
		return el, hits, misses
	}
	best := func(shared bool) (time.Duration, int, int) {
		bt, bh, bm := time.Duration(1<<62), 0, 0
		for i := 0; i < 7; i++ {
			t, h, m := runOnce(shared)
			if t < bt {
				bt, bh, bm = t, h, m
			}
		}
		return bt, bh, bm
	}
	coldT, _, coldMiss := best(false)
	warmT, warmHits, warmMiss := best(true)

	var rows [][]string
	rows = append(rows, []string{
		fmt.Sprintf("shared cache over %d variants", len(variants)),
		warmT.Round(time.Microsecond).String(),
		fmt.Sprintf("%d hits / %d misses", warmHits, warmMiss)})
	rows = append(rows, []string{
		"cold per-variant prediction",
		coldT.Round(time.Microsecond).String(),
		fmt.Sprintf("0 hits / %d misses", coldMiss)})
	table([]string{"mode", "time", "segment cache"}, rows)
	fmt.Printf("\nhit rate %.0f%%, speedup %.1fx: a transformation re-prices only its affected region\n",
		100*float64(warmHits)/float64(warmHits+warmMiss), float64(coldT)/float64(warmT))
	return nil
}

// expA1: ablations — what each ingredient of the cost model buys, on
// the Figure 7 block set.
func expA1() error {
	m := machine.NewPOWER1()
	type variant struct {
		name string
		lopt lower.Options
		topt tetris.Options
	}
	full := lower.DefaultOptions()
	noFMA := full
	noFMA.FuseFMA = false
	noCSE := full
	noCSE.CSE = false
	noPromo := full
	noPromo.ScalarReplace = false
	variants := []variant{
		{"full model", full, tetris.Options{}},
		{"no dependence filter", full, tetris.Options{IgnoreDeps: true}},
		{"focus span 4", full, tetris.Options{FocusSpan: 4}},
		{"no FMA fusion", noFMA, tetris.Options{}},
		{"no CSE", noCSE, tetris.Options{}},
		{"no register promotion", noPromo, tetris.Options{}},
	}
	var rows [][]string
	for _, v := range variants {
		var sumAbs float64
		n := 0
		for _, k := range kernels.Figure7Set() {
			rep, err := perfpredict.AnalyzeInnermostBlockWithOptions(k.Src, m, v.lopt, v.topt)
			if err != nil {
				return err
			}
			// Reference is always the full-model lowering on the
			// scheduled pipeline; the ablation changes the predictor.
			fullRep, err := perfpredict.AnalyzeInnermostBlock(k.Src, m)
			if err != nil {
				return err
			}
			e := 100 * (float64(rep.Predicted) - float64(fullRep.Reference)) / float64(fullRep.Reference)
			if e < 0 {
				e = -e
			}
			sumAbs += e
			n++
		}
		rows = append(rows, []string{v.name, fmt.Sprintf("%.1f%%", sumAbs/float64(n))})
	}
	table([]string{"model variant", "mean |error| vs full reference"}, rows)
	return nil
}
