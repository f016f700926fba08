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
		nest, ok := source.Innermost(p.Body)
		if !ok {
			continue
		}
		tr := lower.New(tbl, m, lower.DefaultOptions())
		lw, err := tr.Body(nest.Body, nest.Vars())
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
	out := &ir.Block{Names: blk.Names}
	stride := ir.Reg(int(blk.MaxReg()) + 1)
	for u := 0; u < f; u++ {
		for i := range blk.Instrs {
			k := out.AppendFrom(blk, i)
			srcs := out.Srcs(k)
			for j, s := range srcs {
				if s != ir.NoReg {
					srcs[j] = s + ir.Reg(u)*stride
				}
			}
			c := &out.Instrs[k]
			if c.Dst != ir.NoReg {
				c.Dst += ir.Reg(u) * stride
			}
			if u > 0 && c.Op.IsMem() && c.Addr != 0 {
				c.Addr = out.Intern(fmt.Sprintf("%s@+%d", blk.Names.Text(c.Addr), u))
			}
		}
	}
	return out
}

func benchSyntheticBlock(n int) *ir.Block {
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

func benchDivChain(n int) *ir.Block {
	blk := &ir.Block{}
	for i := 0; i < n; i++ {
		src := ir.Reg(1000 + i)
		if i > 0 {
			src = ir.Reg(i - 1)
		}
		blk.Append(ir.Instr{Op: ir.OpFDiv, Dst: ir.Reg(i)}, src, 999)
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
	// A dispatch width no drop reaches: occupancy alone decides fits.
	m := withDispatch(b, machine.NewPOWER1(), 1<<20)
	const drops = 512
	b.Run("bitmap", func(b *testing.B) {
		b.ReportAllocs()
		sc := new(Scratch)
		c := m.Compiled()
		at := &c.Costs().Lookup(ir.OpFAdd).Atoms[0]
		for i := 0; i < b.N; i++ {
			bins := sc.prepare(c, Options{})
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
		seq, err := m.Lookup(ir.OpFAdd)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			bins := sc.prepare(m, Options{})
			for j := 0; j < drops; j++ {
				if _, err := bins.placeOne(seq[0], 0); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
