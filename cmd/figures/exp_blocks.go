package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"perfpredict"
	"perfpredict/internal/ir"
	"perfpredict/internal/kernels"
	"perfpredict/internal/lower"
	"perfpredict/internal/machine"
	"perfpredict/internal/pipesim"
	"perfpredict/internal/source"
	"perfpredict/internal/tetris"
)

// expE1 reproduces Figure 7: innermost-block predicted cycles against
// the reference pipeline and the op-count baseline, for F1–F7, the
// 4×4-unrolled matmul, Jacobi and red-black.
func expE1() error {
	target := perfpredict.POWER1()
	var rows [][]string
	var sumAbsErr, maxAbsErr float64
	n := 0
	for _, k := range kernels.Figure7Set() {
		rep, err := perfpredict.AnalyzeInnermostBlock(k.Src, target)
		if err != nil {
			return fmt.Errorf("%s: %w", k.Name, err)
		}
		e := rep.ErrorPct()
		sumAbsErr += math.Abs(e)
		maxAbsErr = math.Max(maxAbsErr, math.Abs(e))
		n++
		rows = append(rows, []string{
			k.Name,
			fmt.Sprint(rep.Instructions),
			fmt.Sprint(rep.Predicted),
			fmt.Sprint(rep.Reference),
			fmt.Sprintf("%+.1f%%", e),
			fmt.Sprint(rep.Baseline),
			fmt.Sprintf("%.1fx", rep.BaselineFactor()),
			fmt.Sprintf("%s %.0f%%", rep.CriticalUnit, 100*rep.Utilization),
		})
	}
	table([]string{"kernel", "ops", "predicted", "reference", "error", "op-count", "baseline off", "critical unit"}, rows)
	fmt.Printf("\nmean |error| = %.1f%%, max |error| = %.1f%% over %d blocks\n", sumAbsErr/float64(n), maxAbsErr, n)
	return nil
}

// expE2 validates shape-based block concatenation (Figure 9): the cheap
// Concat estimate against re-running placement on the concatenated
// blocks, across all kernel-block pairs.
func expE2() error {
	m := machine.NewPOWER1()
	type blk struct {
		name  string
		block *ir.Block
		shape tetris.CostBlock
	}
	var blocks []blk
	for _, k := range kernels.Figure7Set() {
		p, tbl, err := k.Parse()
		if err != nil {
			return err
		}
		nest, ok := source.Innermost(p.Body)
		if !ok {
			continue
		}
		tr := lower.New(tbl, m, lower.DefaultOptions())
		lw, err := tr.Body(nest.Body, nest.Vars())
		if err != nil {
			return err
		}
		res, err := tetris.Estimate(m, lw.Body, tetris.Options{})
		if err != nil {
			return err
		}
		blocks = append(blocks, blk{k.Name, lw.Body, res.Shape})
	}
	var rows [][]string
	var sumErr float64
	count := 0
	for i, a := range blocks {
		for j, b := range blocks {
			if j < i {
				continue
			}
			combined, saved := tetris.Concat(a.shape, b.shape)
			// Exact: concatenate instruction streams (renamed apart)
			// and re-place.
			merged := a.block.Clone()
			off := merged.MaxReg() + 1
			for k := range b.block.Instrs {
				c := b.block.Instrs[k]
				srcs := slices.Clone(b.block.Srcs(k))
				for k2, s := range srcs {
					if s != ir.NoReg {
						srcs[k2] = s + off
					}
				}
				if c.Dst != ir.NoReg {
					c.Dst += off
				}
				// The blocks come from two translators: re-intern b's
				// texts, its addresses primed apart from a's.
				addr := b.block.Names.Text(c.Addr)
				if c.Op.IsMem() && addr != "" {
					addr += "'"
				}
				c.Addr, c.Base = merged.Intern(addr), merged.Intern(b.block.Names.Text(c.Base))
				merged.Append(c, srcs...)
			}
			exact, err := tetris.Estimate(m, merged, tetris.Options{})
			if err != nil {
				return err
			}
			errPct := 100 * (float64(combined.Height) - float64(exact.Cost)) / float64(exact.Cost)
			sumErr += math.Abs(errPct)
			count++
			if i == j || count <= 12 { // print self-pairs and a sample
				rows = append(rows, []string{
					a.name + "+" + b.name,
					fmt.Sprint(a.shape.Height), fmt.Sprint(b.shape.Height),
					fmt.Sprint(combined.Height), fmt.Sprint(saved),
					fmt.Sprint(exact.Cost), fmt.Sprintf("%+.0f%%", errPct),
				})
			}
		}
	}
	table([]string{"pair", "A", "B", "concat est", "saved", "re-placed", "shape err"}, rows)
	fmt.Printf("\nmean |shape error| over %d pairs = %.1f%%\n", count, sumErr/float64(count))
	return nil
}

// expE3 demonstrates the linear-time placement claim and the
// focus-span accuracy/speed trade.
func expE3() error {
	m := machine.NewPOWER1()
	rng := rand.New(rand.NewSource(7))
	mkBlock := func(n int) *ir.Block {
		b := &ir.Block{}
		for i := 0; i < n; i++ {
			ops := []ir.Op{ir.OpFAdd, ir.OpFMul, ir.OpFMA, ir.OpFLoad, ir.OpFStore, ir.OpIAdd}
			op := ops[rng.Intn(len(ops))]
			in := ir.Instr{Op: op, Dst: ir.Reg(i)}
			var srcs []ir.Reg
			switch {
			case op.IsLoad():
				in.Addr, in.Base = b.Intern(fmt.Sprintf("x(%d)", i)), b.Intern("x")
			case op.IsStore():
				in.Dst = ir.NoReg
				srcs = []ir.Reg{src(rng, i)}
				in.Addr, in.Base = b.Intern(fmt.Sprintf("y(%d)", i)), b.Intern("y")
			case op == ir.OpFMA:
				srcs = []ir.Reg{src(rng, i), src(rng, i), src(rng, i)}
			default:
				srcs = []ir.Reg{src(rng, i), src(rng, i)}
			}
			b.Append(in, srcs...)
		}
		return b
	}
	perOp := func(b *ir.Block, opt tetris.Options) float64 {
		start := time.Now()
		reps := 0
		for time.Since(start) < 30*time.Millisecond {
			if _, err := tetris.Estimate(m, b, opt); err != nil {
				panic(err)
			}
			reps++
		}
		return float64(time.Since(start).Nanoseconds()) / float64(reps) / float64(len(b.Instrs))
	}
	var rows [][]string
	for _, n := range []int{64, 256, 1024, 4096, 16384} {
		b := mkBlock(n)
		full := perOp(b, tetris.Options{})
		span := perOp(b, tetris.Options{FocusSpan: 64})
		rows = append(rows, []string{fmt.Sprint(n),
			fmt.Sprintf("%.0f ns", full), fmt.Sprintf("%.0f ns", span)})
	}
	table([]string{"block ops", "per op (unlimited span)", "per op (focus span 64)"}, rows)

	fmt.Println("\nfocus-span sweep (4096-op random block):")
	b := mkBlock(4096)
	full, err := tetris.Estimate(m, b, tetris.Options{})
	if err != nil {
		return err
	}
	var rows2 [][]string
	for _, span := range []int{0, 256, 64, 16, 4} {
		start := time.Now()
		res, err := tetris.Estimate(m, b, tetris.Options{FocusSpan: span})
		if err != nil {
			return err
		}
		el := time.Since(start)
		name := fmt.Sprint(span)
		if span == 0 {
			name = "unlimited"
		}
		rows2 = append(rows2, []string{name, fmt.Sprint(res.Cost),
			fmt.Sprintf("%+.1f%%", 100*(float64(res.Cost)-float64(full.Cost))/float64(full.Cost)),
			el.Round(time.Microsecond).String()})
	}
	table([]string{"focus span", "cost", "vs unlimited", "time"}, rows2)
	return nil
}

func src(rng *rand.Rand, i int) ir.Reg {
	if i > 0 && rng.Intn(2) == 0 {
		return ir.Reg(rng.Intn(i))
	}
	return ir.Reg(100000 + rng.Intn(64))
}

// expE10 quantifies how far off the conventional operation-count model
// is (§1.2: "a conventional cost estimation model may be off by a
// factor of ten or more").
func expE10() error {
	target := perfpredict.POWER1()
	var rows [][]string
	worst := 0.0
	for _, k := range kernels.Figure7Set() {
		rep, err := perfpredict.AnalyzeInnermostBlock(k.Src, target)
		if err != nil {
			return err
		}
		f := rep.BaselineFactor()
		worst = math.Max(worst, f)
		tf := float64(rep.Predicted) / float64(rep.Reference)
		rows = append(rows, []string{k.Name,
			fmt.Sprintf("%.2fx", tf),
			fmt.Sprintf("%.2fx", f)})
	}
	// A deep dependent FP chain with divides shows the extreme case.
	chain := &ir.Block{}
	chain.Append(ir.Instr{Op: ir.OpFLoad, Dst: 0, Addr: chain.Intern("a"), Base: chain.Intern("a")})
	for i := 1; i <= 12; i++ {
		chain.Append(ir.Instr{Op: ir.OpFAdd, Dst: ir.Reg(2 * i)}, ir.Reg(2*(i-1)), 1000)
		chain.Append(ir.Instr{Op: ir.OpIAdd, Dst: ir.Reg(2*i + 1)}, 2000, 2001)
	}
	m := machine.NewPOWER1()
	sched, err := pipesim.RunScheduled(m, chain)
	if err != nil {
		return err
	}
	baseline := int64(0)
	for _, in := range chain.Instrs {
		baseline += int64(m.Latency(in.Op))
	}
	rows = append(rows, []string{"int+fp mix (synthetic)",
		"-", fmt.Sprintf("%.2fx", float64(baseline)/float64(sched.Cycles))})
	table([]string{"kernel", "tetris/reference", "op-count/reference"}, rows)
	fmt.Printf("\nworst kernel baseline factor: %.1fx (overlap ignored)\n", worst)
	return nil
}

// expE14 measures predictor throughput against simulator throughput —
// the efficiency requirement that makes "repeated calls practical
// during the program optimization process".
func expE14() error {
	target := perfpredict.POWER1()
	var rows [][]string
	for _, name := range []string{"f2", "matmul44", "jacobi"} {
		k, err := kernels.Get(name)
		if err != nil {
			return err
		}
		// Predictor time (full parse+analyze+aggregate).
		start := time.Now()
		reps := 0
		for time.Since(start) < 50*time.Millisecond {
			if _, err := perfpredict.Predict(k.Src, target); err != nil {
				return err
			}
			reps++
		}
		predT := time.Since(start) / time.Duration(reps)
		// Simulator time (one dynamic run).
		start = time.Now()
		if _, err := perfpredict.Simulate(k.Src, target, k.Args); err != nil {
			return err
		}
		simT := time.Since(start)
		rows = append(rows, []string{name,
			predT.Round(time.Microsecond).String(),
			simT.Round(time.Microsecond).String(),
			fmt.Sprintf("%.0fx", float64(simT)/float64(predT))})
	}
	table([]string{"kernel", "predict", "simulate", "speedup"}, rows)
	return nil
}
