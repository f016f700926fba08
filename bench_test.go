// Benchmarks: one per reproduced table/figure (see DESIGN.md §4 and
// EXPERIMENTS.md). Each benchmark runs the computation that generates
// the corresponding experiment row set; `go run ./cmd/figures` prints
// the actual tables. Custom metrics report the experiment's headline
// quality numbers alongside the usual ns/op.
package perfpredict

import (
	"context"
	"fmt"
	"math"
	"testing"

	"perfpredict/internal/aggregate"
	"perfpredict/internal/cachemodel"
	"perfpredict/internal/cachesim"
	"perfpredict/internal/comm"
	"perfpredict/internal/interp"
	"perfpredict/internal/ir"
	"perfpredict/internal/kernels"
	"perfpredict/internal/lower"
	"perfpredict/internal/machine"
	"perfpredict/internal/pipesim"
	"perfpredict/internal/sem"
	"perfpredict/internal/source"
	"perfpredict/internal/symexpr"
	"perfpredict/internal/tetris"
	"perfpredict/internal/xform"
)

// BenchmarkFig7StraightLine (E1): the Figure 7 block set — prediction,
// reference, baseline per kernel block.
func BenchmarkFig7StraightLine(b *testing.B) {
	b.ReportAllocs()
	target := POWER1()
	set := kernels.Figure7Set()
	var meanErr float64
	for i := 0; i < b.N; i++ {
		var sum float64
		for _, k := range set {
			rep, err := AnalyzeInnermostBlock(k.Src, target)
			if err != nil {
				b.Fatal(err)
			}
			sum += math.Abs(rep.ErrorPct())
		}
		meanErr = sum / float64(len(set))
	}
	b.ReportMetric(meanErr, "mean|err|%")
}

// BenchmarkFig9Overlap (E2): shape concatenation vs full re-placement
// over all kernel-block pairs.
func BenchmarkFig9Overlap(b *testing.B) {
	b.ReportAllocs()
	m := machine.NewPOWER1()
	var blocks []*ir.Block
	var shapes []tetris.CostBlock
	for _, k := range kernels.Figure7Set() {
		p, tbl, err := k.Parse()
		if err != nil {
			b.Fatal(err)
		}
		nest, ok := source.Innermost(p.Body)
		if !ok {
			continue
		}
		tr := lower.New(tbl, m, lower.DefaultOptions())
		lw, err := tr.Body(nest.Body, nest.Vars())
		if err != nil {
			b.Fatal(err)
		}
		res, err := tetris.Estimate(m, lw.Body, tetris.Options{})
		if err != nil {
			b.Fatal(err)
		}
		blocks = append(blocks, lw.Body)
		shapes = append(shapes, res.Shape)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for x := range shapes {
			for y := range shapes {
				tetris.Concat(shapes[x], shapes[y])
			}
		}
	}
}

// BenchmarkTetrisScaling (E3): placement cost per operation at two
// block sizes — the linear-time claim.
func BenchmarkTetrisScaling(b *testing.B) {
	b.ReportAllocs()
	m := machine.NewPOWER1()
	for _, n := range []int{256, 4096} {
		blk := syntheticBlock(n)
		b.Run(fmt.Sprintf("ops%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tetris.Estimate(m, blk, tetris.Options{FocusSpan: 64}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/ir-op")
		})
	}
}

func syntheticBlock(n int) *ir.Block {
	blk := &ir.Block{}
	for i := 0; i < n; i++ {
		switch i % 4 {
		case 0:
			blk.Append(ir.Instr{Op: ir.OpFLoad, Dst: ir.Reg(i), Addr: blk.Intern(fmt.Sprintf("x(%d)", i)), Base: blk.Intern("x")})
		case 1:
			blk.Append(ir.Instr{Op: ir.OpFMul, Dst: ir.Reg(i)}, ir.Reg(i-1), 100000)
		case 2:
			blk.Append(ir.Instr{Op: ir.OpFAdd, Dst: ir.Reg(i)}, ir.Reg(i-1), 100001)
		default:
			blk.Append(ir.Instr{Op: ir.OpFStore, Addr: blk.Intern(fmt.Sprintf("y(%d)", i)), Base: blk.Intern("y")}, ir.Reg(i-1))
		}
	}
	return blk
}

// BenchmarkUnrollChoice (E4): predict the best unroll factor for the
// Jacobi kernel.
func BenchmarkUnrollChoice(b *testing.B) {
	b.ReportAllocs()
	k, err := kernels.Get("jacobi")
	if err != nil {
		b.Fatal(err)
	}
	prog, _, err := k.Parse()
	if err != nil {
		b.Fatal(err)
	}
	var path xform.Path
	for _, site := range xform.FindLoops(prog) {
		if site.Innermost {
			path = site.Path
		}
	}
	target := POWER1()
	best := 0
	for i := 0; i < b.N; i++ {
		bestCost := math.MaxFloat64
		for _, f := range []int{1, 2, 4, 8} {
			variant := prog
			if f > 1 {
				var err error
				variant, err = xform.Unroll(prog, path, f)
				if err != nil {
					b.Fatal(err)
				}
			}
			pred, err := Predict(source.PrintProgram(variant), target)
			if err != nil {
				b.Fatal(err)
			}
			pv, err := pred.EvalAt(nil)
			if err != nil {
				b.Fatal(err)
			}
			if pv < bestCost {
				bestCost, best = pv, f
			}
		}
	}
	b.ReportMetric(float64(best), "chosen-factor")
}

// BenchmarkSymbolicCompare (E5): sign-region comparison of two
// performance expressions including root isolation.
func BenchmarkSymbolicCompare(b *testing.B) {
	b.ReportAllocs()
	n := symexpr.Var("n")
	quad := symexpr.NewVar(n).Pow(2).Scale(2.25).Add(symexpr.NewVar(n)).AddConst(8)
	lin := symexpr.NewVar(n).Scale(34.75).AddConst(7)
	bounds := symexpr.Bounds{n: {Lo: 1, Hi: 64}}
	var crossover float64
	for i := 0; i < b.N; i++ {
		cmp, err := symexpr.Compare(quad, lin, bounds)
		if err != nil {
			b.Fatal(err)
		}
		if rt, ok := symexpr.DeriveRuntimeTest(cmp); ok && len(rt.Thresholds) > 0 {
			crossover = rt.Thresholds[0]
		}
	}
	b.ReportMetric(crossover, "crossover-n")
}

// BenchmarkCondSimplify (E6): aggregation of the §3.3.2 loop-index
// conditional, reporting the prediction error vs simulation at k=1000.
func BenchmarkCondSimplify(b *testing.B) {
	b.ReportAllocs()
	k, err := kernels.Get("condsplit")
	if err != nil {
		b.Fatal(err)
	}
	target := POWER1()
	sim, err := Simulate(k.Src, target, map[string]float64{"n": 2000, "k": 1000})
	if err != nil {
		b.Fatal(err)
	}
	var errPct float64
	for i := 0; i < b.N; i++ {
		pred, err := Predict(k.Src, target)
		if err != nil {
			b.Fatal(err)
		}
		pv, err := pred.EvalAt(map[string]float64{"n": 2000, "k": 1000})
		if err != nil {
			b.Fatal(err)
		}
		errPct = 100 * math.Abs(pv-float64(sim)) / float64(sim)
	}
	b.ReportMetric(errPct, "|err|%")
}

// BenchmarkCacheModel (E7): FST line counting for the matmul nest,
// reporting the model/simulator miss ratio at n=64.
func BenchmarkCacheModel(b *testing.B) {
	b.ReportAllocs()
	src := `
program matmul
  integer i, j, k, n
  parameter (n = 64)
  real a(64,64), b(64,64), c(64,64)
  do i = 1, n
    do j = 1, n
      do k = 1, n
        c(i,j) = c(i,j) + a(i,k) * b(k,j)
      end do
    end do
  end do
end
`
	p, err := source.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	tbl, err := sem.Analyze(p)
	if err != nil {
		b.Fatal(err)
	}
	body := p.Body
	for len(body) == 1 {
		l, ok := body[0].(*source.DoLoop)
		if !ok {
			break
		}
		body = l.Body
	}
	cfg := cachemodel.DefaultConfig()
	cfg.TLBPageBytes = 0
	loops := []cachemodel.Loop{{Var: "i", Trips: 64}, {Var: "j", Trips: 64}, {Var: "k", Trips: 64}}
	// Ground truth once.
	cache := cachesim.MustNew(cachesim.Config{Size: cfg.SizeBytes, LineSize: cfg.LineBytes, Assoc: 0})
	bases := map[string]int64{}
	var next int64
	r := interp.New(p, tbl, interp.Options{MemTrace: func(base string, idx int64, write bool) {
		bb, ok := bases[base]
		if !ok {
			bb = next
			bases[base] = bb
			next += (1 << 24) + 8*1013*cfg.LineBytes
		}
		cache.Access(bb + idx*8)
	}})
	if err := r.Run(); err != nil {
		b.Fatal(err)
	}
	_, simMisses := cache.Stats()
	b.ResetTimer()
	var ratio float64
	for i := 0; i < b.N; i++ {
		est, err := cachemodel.EstimateNest(tbl, loops, body, cfg)
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(est.LineMisses) / float64(simMisses)
	}
	b.ReportMetric(ratio, "model/sim")
}

// BenchmarkWholeProgram (E8): aggregated prediction of every kernel,
// reporting the mean pred/sim ratio.
func BenchmarkWholeProgram(b *testing.B) {
	b.ReportAllocs()
	target := POWER1()
	type pair struct {
		k   kernels.Kernel
		sim float64
	}
	var set []pair
	for _, k := range kernels.All() {
		if k.Name == "stencil_dist" {
			continue
		}
		sim, err := Simulate(k.Src, target, k.Args)
		if err != nil {
			b.Fatal(err)
		}
		set = append(set, pair{k, float64(sim)})
	}
	b.ResetTimer()
	var mean float64
	for i := 0; i < b.N; i++ {
		var sum float64
		for _, pr := range set {
			pred, err := Predict(pr.k.Src, target)
			if err != nil {
				b.Fatal(err)
			}
			pv, err := pred.EvalAt(pr.k.Args)
			if err != nil {
				b.Fatal(err)
			}
			sum += pv / pr.sim
		}
		mean = sum / float64(len(set))
	}
	b.ReportMetric(mean, "mean-pred/sim")
}

// BenchmarkAStarSearch (E9): best-first transformation search on the
// matmul nest.
func BenchmarkAStarSearch(b *testing.B) {
	b.ReportAllocs()
	k, err := kernels.Get("matmul")
	if err != nil {
		b.Fatal(err)
	}
	prog, _, err := k.Parse()
	if err != nil {
		b.Fatal(err)
	}
	var gain float64
	for i := 0; i < b.N; i++ {
		res, err := xform.SearchCtx(context.Background(), prog, xform.SearchOptions{
			Machine: machine.NewPOWER1(), MaxNodes: 15, MaxDepth: 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		gain = res.InitialCost / res.BestCost
	}
	b.ReportMetric(gain, "predicted-gain")
}

// BenchmarkOptimize measures the transformation search's incremental
// re-pricing on the EXPERIMENTS.md figure programs: "full" disables
// the nest-level cost cache (every candidate re-prices every nest —
// the pre-incremental behavior, counted), "incremental" enables it.
// Custom metrics report nests re-priced and tetris invocations per
// Optimize call; the incremental/full tetris ratio is the headline
// (target ≥3× fewer).
func BenchmarkOptimize(b *testing.B) {
	for _, kn := range []string{"f2", "f6", "matmul"} {
		k, err := kernels.Get(kn)
		if err != nil {
			b.Fatal(err)
		}
		prog, _, err := k.Parse()
		if err != nil {
			b.Fatal(err)
		}
		for _, mode := range []struct {
			name    string
			disable bool
		}{{"full", true}, {"incremental", false}} {
			b.Run(kn+"/"+mode.name, func(b *testing.B) {
				b.ReportAllocs()
				var repriced, tet float64
				for i := 0; i < b.N; i++ {
					res, err := xform.SearchCtx(context.Background(), prog, xform.SearchOptions{
						Machine:          machine.NewPOWER1(),
						DisableNestCache: mode.disable,
					})
					if err != nil {
						b.Fatal(err)
					}
					repriced = float64(res.NestMisses)
					tet = float64(res.TetrisCalls)
				}
				b.ReportMetric(repriced, "nests-repriced/op")
				b.ReportMetric(tet, "tetris-calls/op")
			})
		}
	}
}

// BenchmarkBaselineError (E10): the op-count model's factor over the
// reference, worst case across the Figure 7 set.
func BenchmarkBaselineError(b *testing.B) {
	b.ReportAllocs()
	target := POWER1()
	set := kernels.Figure7Set()
	var worst float64
	for i := 0; i < b.N; i++ {
		worst = 0
		for _, k := range set {
			rep, err := AnalyzeInnermostBlock(k.Src, target)
			if err != nil {
				b.Fatal(err)
			}
			worst = math.Max(worst, rep.BaselineFactor())
		}
	}
	b.ReportMetric(worst, "worst-factor")
}

// BenchmarkSensitivity (E11): ranking the unknowns of a three-loop
// program.
func BenchmarkSensitivity(b *testing.B) {
	b.ReportAllocs()
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
	pred, err := Predict(src, POWER1())
	if err != nil {
		b.Fatal(err)
	}
	nominal := map[string]float64{"n": 100, "k": 2000, "m": 200}
	b.ResetTimer()
	rankedN := 0.0
	for i := 0; i < b.N; i++ {
		sens, err := pred.Sensitivity(nominal, 0.10)
		if err != nil {
			b.Fatal(err)
		}
		if sens[0].Name == "n" {
			rankedN = 1
		}
	}
	b.ReportMetric(rankedN, "top-is-n")
}

// BenchmarkPartitioning (E12): block-vs-cyclic communication estimate
// plus the symbolic comparison over P.
func BenchmarkPartitioning(b *testing.B) {
	b.ReportAllocs()
	k, err := kernels.Get("stencil_dist")
	if err != nil {
		b.Fatal(err)
	}
	p, tbl, err := k.Parse()
	if err != nil {
		b.Fatal(err)
	}
	loop := p.Body[0].(*source.DoLoop)
	assign := loop.Body[0].(*source.Assign)
	loops := []comm.Loop{{Var: loop.Var, Trips: symexpr.Const(62)}}
	model := comm.DefaultModel()
	for i := 0; i < b.N; i++ {
		cost, err := comm.EstimateAssign(tbl, assign, loops)
		if err != nil {
			b.Fatal(err)
		}
		_ = model.Cycles(cost)
	}
}

// BenchmarkIncrementalUpdate (E13): prediction of transformation
// variants with a shared segment cache.
func BenchmarkIncrementalUpdate(b *testing.B) {
	b.ReportAllocs()
	k, err := kernels.Get("matmul")
	if err != nil {
		b.Fatal(err)
	}
	prog, _, err := k.Parse()
	if err != nil {
		b.Fatal(err)
	}
	opt := xform.SearchOptions{Machine: machine.NewPOWER1()}
	opt.UnrollFactors = []int{2, 4, 8}
	opt.TileSizes = []int{8, 16}
	variants := []*source.Program{prog}
	for _, mv := range xform.Moves(prog, opt) {
		if v, err := xform.Apply(prog, mv); err == nil {
			variants = append(variants, v)
		}
	}
	b.Run("shared-cache", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cache := aggregate.NewSegCache()
			for _, v := range variants {
				if _, err := xform.Predict(v, opt, cache); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, v := range variants {
				if _, err := xform.Predict(v, opt, aggregate.NewSegCache()); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkPredictorEfficiency (E14): predictor throughput vs one
// dynamic simulation of the same kernel.
func BenchmarkPredictorEfficiency(b *testing.B) {
	b.ReportAllocs()
	k, err := kernels.Get("matmul44")
	if err != nil {
		b.Fatal(err)
	}
	target := POWER1()
	b.Run("predict", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Predict(k.Src, target); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("simulate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Simulate(k.Src, target, k.Args); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPipesimThroughput: raw reference-simulator speed on a
// scheduled block (supporting number for E14).
func BenchmarkPipesimThroughput(b *testing.B) {
	b.ReportAllocs()
	m := machine.NewPOWER1()
	blk := syntheticBlock(1024)
	sched := pipesim.Schedule(m, blk)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipesim.Run(m, sched); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/1024, "ns/instr")
}

// BenchmarkAblations (A1): the full model against its ablated variants
// on one representative kernel block.
func BenchmarkAblations(b *testing.B) {
	b.ReportAllocs()
	k, err := kernels.Get("matmul44")
	if err != nil {
		b.Fatal(err)
	}
	m := machine.NewPOWER1()
	noPromo := lower.DefaultOptions()
	noPromo.ScalarReplace = false
	cases := []struct {
		name string
		lopt lower.Options
		topt tetris.Options
	}{
		{"full", lower.DefaultOptions(), tetris.Options{}},
		{"no-deps", lower.DefaultOptions(), tetris.Options{IgnoreDeps: true}},
		{"no-promotion", noPromo, tetris.Options{}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var pred float64
			for i := 0; i < b.N; i++ {
				rep, err := AnalyzeInnermostBlockWithOptions(k.Src, m, c.lopt, c.topt)
				if err != nil {
					b.Fatal(err)
				}
				pred = float64(rep.Predicted)
			}
			b.ReportMetric(pred, "predicted-cycles")
		})
	}
}

// BenchmarkPredictBatch (E15): the concurrent batch-prediction
// pipeline over every built-in kernel, serial pool vs one worker per
// core, sharing the sharded segment cache. The parallel/serial ratio
// is the pipeline's speedup; on a single-core machine the two run the
// same code path.
func BenchmarkPredictBatch(b *testing.B) {
	b.ReportAllocs()
	target := POWER1()
	var srcs []string
	for _, k := range kernels.All() {
		srcs = append(srcs, k.Src)
	}
	run := func(workers int) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, errs := PredictBatchCtx(context.Background(), srcs, target, BatchOptions{Workers: workers})
				for _, err := range errs {
					if err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	}
	b.Run("serial", run(1))
	b.Run("parallel", run(0))
}

// BenchmarkPolyMul: product of two multivariate performance
// expressions — the symbolic-arithmetic inner loop of aggregation,
// kept allocation-lean by monomial-key interning.
func BenchmarkPolyMul(b *testing.B) {
	b.ReportAllocs()
	n, m, p := symexpr.Var("n"), symexpr.Var("m"), symexpr.Var("p")
	a := symexpr.NewVar(n).Pow(2).Scale(3).Add(symexpr.NewVar(m).Mul(symexpr.NewVar(n))).AddConst(7)
	c := symexpr.NewVar(p).Scale(2.5).Add(symexpr.NewVar(m).Pow(3)).Add(symexpr.NewVar(n)).AddConst(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.Mul(c)
	}
}
