package tetris

// Microbenchmarks for the Tetris kernel, each run against both slot
// implementations: "bitmap" is the production uint64/SoA kernel,
// "runlength" is the retired Figure 4 implementation preserved in
// runlength_est_test.go. scripts/bench.sh records these in
// BENCH_tetris.json; scripts/ci.sh smokes them and compares fresh
// numbers against the committed floor (non-gating).

import (
	"fmt"
	"testing"

	"perfpredict/internal/ir"
	"perfpredict/internal/kernels"
	"perfpredict/internal/lower"
	"perfpredict/internal/machine"
	"perfpredict/internal/source"
)

// kernelSuiteBlocks lowers the innermost block of every Figure 7 kernel
// on POWER1 and adds the ×4/×8 unrolled form of each — the block set
// every predict call prices, weighted the way the optimizer's unroll
// search weights it (most estimator time in production goes to pricing
// the unrolled candidates, which dwarf the rolled bodies).
func kernelSuiteBlocks(tb testing.TB) []*ir.Block {
	m := machine.NewPOWER1()
	var blocks []*ir.Block
	for _, k := range kernels.Figure7Set() {
		p, tbl, err := k.Parse()
		if err != nil {
			tb.Fatal(err)
		}
		body, vars, ok := benchInnermost(p.Body, nil)
		if !ok {
			continue
		}
		tr := lower.New(tbl, m, lower.DefaultOptions())
		lw, err := tr.Body(body, vars)
		if err != nil {
			tb.Fatal(err)
		}
		blocks = append(blocks, lw.Body)
		for _, f := range []int{4, 8} {
			blocks = append(blocks, benchUnrollIR(lw.Body, f))
		}
	}
	if len(blocks) == 0 {
		tb.Fatal("no kernel blocks")
	}
	return blocks
}

// benchUnrollIR builds the IR an f-way unrolled, register-renamed copy
// of blk lowers to: each iteration copy gets fresh registers and
// shifted subscripts (distinct address strings over the same bases), so
// copies are independent up to memory ordering — the shape the unroll
// search hands the estimator.
func benchUnrollIR(blk *ir.Block, f int) *ir.Block {
	out := &ir.Block{}
	stride := ir.Reg(int(blk.MaxReg()) + 1)
	for u := 0; u < f; u++ {
		for _, in := range blk.Instrs {
			c := in
			c.Srcs = make([]ir.Reg, len(in.Srcs))
			for k, s := range in.Srcs {
				if s == ir.NoReg {
					c.Srcs[k] = s
					continue
				}
				c.Srcs[k] = s + ir.Reg(u)*stride
			}
			if c.Dst != ir.NoReg {
				c.Dst += ir.Reg(u) * stride
			}
			if u > 0 && c.Addr != "" {
				c.Addr = fmt.Sprintf("%s@+%d", in.Addr, u)
			}
			out.Append(c)
		}
	}
	return out
}

// benchInnermost mirrors the library's innermost-block extraction:
// deepest loop nest whose body is straight-line.
func benchInnermost(stmts []source.Stmt, vars []string) ([]source.Stmt, []string, bool) {
	var bestBody []source.Stmt
	var bestVars []string
	bestDepth := -1
	var walk func(list []source.Stmt, vs []string)
	walk = func(list []source.Stmt, vs []string) {
		for _, s := range list {
			switch x := s.(type) {
			case *source.DoLoop:
				inner := append(append([]string{}, vs...), x.Var)
				straight := len(x.Body) > 0
				for _, b := range x.Body {
					switch b.(type) {
					case *source.Assign, *source.CallStmt, *source.ContinueStmt:
					default:
						straight = false
					}
				}
				if straight {
					if len(inner) > bestDepth {
						bestDepth = len(inner)
						bestBody = x.Body
						bestVars = inner
					}
					continue
				}
				walk(x.Body, inner)
			case *source.IfStmt:
				walk(x.Then, vs)
				walk(x.Else, vs)
			}
		}
	}
	walk(stmts, vars)
	if bestDepth < 0 {
		return nil, nil, false
	}
	return bestBody, bestVars, true
}

func benchSyntheticBlock(n int) *ir.Block {
	blk := &ir.Block{}
	for i := 0; i < n; i++ {
		switch i % 4 {
		case 0:
			blk.Append(ir.Instr{Op: ir.OpFLoad, Dst: ir.Reg(i), Addr: fmt.Sprintf("x(%d)", i), Base: "x"})
		case 1:
			blk.Append(ir.Instr{Op: ir.OpFMul, Dst: ir.Reg(i), Srcs: []ir.Reg{ir.Reg(i - 1), 100000}})
		case 2:
			blk.Append(ir.Instr{Op: ir.OpFAdd, Dst: ir.Reg(i), Srcs: []ir.Reg{ir.Reg(i - 1), 100001}})
		default:
			blk.Append(ir.Instr{Op: ir.OpFStore, Srcs: []ir.Reg{ir.Reg(i - 1)}, Addr: fmt.Sprintf("y(%d)", i), Base: "y"})
		}
	}
	return blk
}

func benchDivChain(n int) *ir.Block {
	blk := &ir.Block{}
	for i := 0; i < n; i++ {
		src := ir.Reg(1000 + i)
		if i > 0 {
			src = ir.Reg(i - 1)
		}
		blk.Append(ir.Instr{Op: ir.OpFDiv, Dst: ir.Reg(i), Srcs: []ir.Reg{src, 999}})
	}
	return blk
}

type estimatorFn func(*machine.Machine, *ir.Block, Options) (Result, error)

func benchEstimator(b *testing.B, name string, fn estimatorFn, m *machine.Machine, blocks []*ir.Block, opt Options) {
	b.Run(name, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, blk := range blocks {
				if _, err := fn(m, blk, opt); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkTetrisEstimate prices block sets with both kernels; the
// bitmap/runlength ns/op ratio is the headline speedup (the PR gate
// pins ≥2× on the kernel suite).
func BenchmarkTetrisEstimate(b *testing.B) {
	m := machine.NewPOWER1()
	suites := []struct {
		name   string
		blocks []*ir.Block
		opt    Options
	}{
		{"kernels", kernelSuiteBlocks(b), Options{}},
		{"ops256", []*ir.Block{benchSyntheticBlock(256)}, Options{FocusSpan: 64}},
		{"ops4096", []*ir.Block{benchSyntheticBlock(4096)}, Options{FocusSpan: 64}},
		{"divchain128", []*ir.Block{benchDivChain(128)}, Options{}},
	}
	for _, s := range suites {
		b.Run(s.name, func(b *testing.B) {
			benchEstimator(b, "bitmap", Estimate, m, s.blocks, s.opt)
			benchEstimator(b, "runlength", rlEstimate, m, s.blocks, s.opt)
		})
	}
}

// BenchmarkTetrisTryFit isolates the placement primitive: one atomic
// op dropped 512 times into the same bins, every drop re-scanning from
// slot 0 through increasingly dense occupancy — tryFit/nextFit with
// the surrounding estimator stripped away.
func BenchmarkTetrisTryFit(b *testing.B) {
	m := machine.NewPOWER1()
	const drops = 512
	b.Run("bitmap", func(b *testing.B) {
		b.ReportAllocs()
		sc := new(estScratch)
		opt := Options{DispatchWidth: 1 << 20}
		c := m.Compiled()
		at := &c.Costs().Lookup(ir.OpFAdd).Atoms[0]
		for i := 0; i < b.N; i++ {
			bins := sc.prepare(c, opt)
			for j := 0; j < drops; j++ {
				if _, err := bins.placeOne(at, 0); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("runlength", func(b *testing.B) {
		b.ReportAllocs()
		sc := new(rlScratch)
		opt := Options{DispatchWidth: 1 << 20}
		seq, err := m.Lookup(ir.OpFAdd)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			bins := sc.prepare(m, opt)
			for j := 0; j < drops; j++ {
				if _, err := bins.placeOne(seq[0], 0); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
