package progen

import (
	"math/rand"
	"sort"

	"perfpredict/internal/ir"
)

// BlockConfig bounds the generated straight-line blocks.
type BlockConfig struct {
	// MinOps and MaxOps bound the instruction count (defaults 3..14,
	// sized so the exact oracle can prove optimality).
	MinOps, MaxOps int
	// AllowControl permits a compare+branch tail.
	AllowControl bool
}

func (c *BlockConfig) defaults() {
	if c.MaxOps == 0 {
		c.MinOps, c.MaxOps = 3, 14
	}
	if c.MinOps <= 0 {
		c.MinOps = 1
	}
}

// memFraction is the rough share of memory operations in a generated
// block. Memory traffic is what exercises the dependence filter's
// RAW/WAR/WAW and aliasing paths.
const memFraction = 0.35

// intOps and floatOps are the register-to-register op pools, weighted
// by repetition.
var intOps = []ir.Op{
	ir.OpIAdd, ir.OpIAdd, ir.OpISub, ir.OpIMul, ir.OpIMulSmall,
	ir.OpIDiv, ir.OpIMod, ir.OpINeg, ir.OpIAbs, ir.OpAddr,
}

var floatOps = []ir.Op{
	ir.OpFAdd, ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFMul,
	ir.OpFDiv, ir.OpFMA, ir.OpFMS, ir.OpFNeg, ir.OpFAbs,
	ir.OpFSqrt, ir.OpFMin, ir.OpFMax,
}

// addrPool builds the block's set of lexical addresses over a few base
// arrays; reuse across instructions is what creates memory dependences.
func addrPool(r *rand.Rand) (addrs, bases []string) {
	subscripts := []string{"i", "i+1", "j", "i,j", "j,i", "1"}
	for _, base := range []string{"a", "b", "c"}[:between(r, 2, 3)] {
		n := between(r, 1, 3)
		for k := 0; k < n; k++ {
			addrs = append(addrs, base+"("+pick(r, subscripts)+")")
			bases = append(bases, base)
		}
	}
	return addrs, bases
}

// GenBlock generates a valid SSA basic block: every instruction
// defines a fresh register, sources come from type-consistent pools of
// previously defined registers, and memory operations draw addresses
// from a shared pool so dependences actually occur.
func GenBlock(r *rand.Rand, cfg BlockConfig) *ir.Block {
	cfg.defaults()
	b := &ir.Block{}
	addrs, bases := addrPool(r)
	next := ir.Reg(0)
	fresh := func() ir.Reg { next++; return next - 1 }
	var ints, floats, conds []ir.Reg

	// Bootstrap both pools so operand selection never fails.
	r0 := fresh()
	b.Append(ir.Instr{Op: ir.OpLoadImm, Dst: r0, Imm: float64(between(r, 1, 9))})
	ints = append(ints, r0)
	r1 := fresh()
	ai := r.Intn(len(addrs))
	b.Append(ir.Instr{Op: ir.OpFLoad, Dst: r1, Addr: b.Intern(addrs[ai]), Base: b.Intern(bases[ai])})
	floats = append(floats, r1)

	n := between(r, cfg.MinOps, cfg.MaxOps)
	for len(b.Instrs) < n {
		roll := r.Float64()
		switch {
		case roll < memFraction:
			ai := r.Intn(len(addrs))
			switch r.Intn(4) {
			case 0: // integer load
				d := fresh()
				b.Append(ir.Instr{Op: ir.OpILoad, Dst: d, Addr: b.Intern(addrs[ai]), Base: b.Intern(bases[ai])})
				ints = append(ints, d)
			case 1: // integer store
				b.Append(ir.Instr{Op: ir.OpIStore, Dst: ir.NoReg, Addr: b.Intern(addrs[ai]), Base: b.Intern(bases[ai])}, pick(r, ints))
			case 2: // float load
				d := fresh()
				b.Append(ir.Instr{Op: ir.OpFLoad, Dst: d, Addr: b.Intern(addrs[ai]), Base: b.Intern(bases[ai])})
				floats = append(floats, d)
			default: // float store
				b.Append(ir.Instr{Op: ir.OpFStore, Dst: ir.NoReg, Addr: b.Intern(addrs[ai]), Base: b.Intern(bases[ai])}, pick(r, floats))
			}
		case roll < memFraction+0.08:
			switch r.Intn(3) {
			case 0: // constant
				d := fresh()
				b.Append(ir.Instr{Op: ir.OpLoadImm, Dst: d, Imm: float64(between(r, -4, 20))})
				ints = append(ints, d)
			case 1: // int -> float
				d := fresh()
				b.Append(ir.Instr{Op: ir.OpItoF, Dst: d}, pick(r, ints))
				floats = append(floats, d)
			default: // float -> int
				d := fresh()
				b.Append(ir.Instr{Op: ir.OpFtoI, Dst: d}, pick(r, floats))
				ints = append(ints, d)
			}
		case roll < memFraction+0.08+0.22:
			op := pick(r, intOps)
			d := fresh()
			in := ir.Instr{Op: op, Dst: d}
			var srcs []ir.Reg
			for s := 0; s < op.NumSrcs(); s++ {
				srcs = append(srcs, pick(r, ints))
			}
			if op == ir.OpIMulSmall {
				in.Imm = float64(between(r, -128, 127))
			}
			b.Append(in, srcs...)
			ints = append(ints, d)
		default:
			op := pick(r, floatOps)
			d := fresh()
			var srcs []ir.Reg
			for s := 0; s < op.NumSrcs(); s++ {
				srcs = append(srcs, pick(r, floats))
			}
			b.Append(ir.Instr{Op: op, Dst: d}, srcs...)
			floats = append(floats, d)
		}
	}

	if cfg.AllowControl && r.Intn(3) == 0 {
		d := fresh()
		if r.Intn(2) == 0 {
			b.Append(ir.Instr{Op: ir.OpICmp, Dst: d}, pick(r, ints), pick(r, ints))
		} else {
			b.Append(ir.Instr{Op: ir.OpFCmp, Dst: d}, pick(r, floats), pick(r, floats))
		}
		conds = append(conds, d)
		b.Append(ir.Instr{Op: ir.OpBranch, Dst: ir.NoReg}, pick(r, conds))
	}
	return b
}

// TopoShuffle returns a random dependence-respecting permutation of b:
// instructions are emitted in a random order in which every
// instruction follows all of its dependences (under the same MayAlias
// the estimate will use). The oracle's exact cost is invariant under
// any such permutation.
func TopoShuffle(r *rand.Rand, b *ir.Block, mayAlias bool) *ir.Block {
	deps := b.Deps(mayAlias)
	n := len(b.Instrs)
	indeg := make([]int, n)
	succs := make([][]int, n)
	for i, ds := range deps {
		indeg[i] = len(ds)
		for _, j := range ds {
			succs[j] = append(succs[j], i)
		}
	}
	var ready []int
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	out := &ir.Block{Names: b.Names}
	for len(ready) > 0 {
		k := r.Intn(len(ready))
		i := ready[k]
		ready = append(ready[:k], ready[k+1:]...)
		out.AppendFrom(b, i)
		for _, s := range succs[i] {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	return out
}

// SwapCommutativeSrcs flips the two sources of every commutative
// binary operation. The dependence sets are unchanged, so every
// estimate must be too.
func SwapCommutativeSrcs(b *ir.Block) *ir.Block {
	c := b.Clone()
	for i := range c.Instrs {
		if srcs := c.Srcs(i); c.Instrs[i].Op.Commutative() && len(srcs) == 2 {
			srcs[0], srcs[1] = srcs[1], srcs[0]
		}
	}
	return c
}

// RenameRegs applies a random bijective renaming to every register.
// SSA structure and dependences are preserved, so every estimate must
// be invariant.
func RenameRegs(r *rand.Rand, b *ir.Block) *ir.Block {
	max := int(b.MaxReg())
	if max < 0 {
		return b.Clone()
	}
	perm := r.Perm(max + 1)
	rename := func(reg ir.Reg) ir.Reg {
		if reg == ir.NoReg {
			return reg
		}
		return ir.Reg(perm[reg])
	}
	c := b.Clone()
	for i := range c.Instrs {
		in := &c.Instrs[i]
		if in.Op.HasDst() {
			in.Dst = rename(in.Dst)
		}
		srcs := c.Srcs(i)
		for s := range srcs {
			srcs[s] = rename(srcs[s])
		}
	}
	return c
}

// SwapAdjacentSinks looks for two adjacent instructions with the same
// operation, identical source sets, identical dependence sets, and no
// later instruction depending on either. Identical op + sources +
// dependences means identical ready times (the placer classifies each
// dependence as data vs memory by whether it defines a source) and
// identical cost objects, so the two placements commute: swapping the
// pair cannot change the estimate. Returns ok=false if b has no such
// pair.
func SwapAdjacentSinks(b *ir.Block, mayAlias bool) (*ir.Block, bool) {
	deps := b.Deps(mayAlias)
	n := len(b.Instrs)
	hasConsumer := make([]bool, n)
	sorted := make([][]int, n)
	for i, ds := range deps {
		for _, j := range ds {
			hasConsumer[j] = true
		}
		sorted[i] = append([]int(nil), ds...)
		sort.Ints(sorted[i])
	}
	srcSet := func(i int) []int {
		out := make([]int, len(b.Srcs(i)))
		for k, s := range b.Srcs(i) {
			out[k] = int(s)
		}
		sort.Ints(out)
		return out
	}
	for i := 0; i+1 < n; i++ {
		a, c := b.Instrs[i], b.Instrs[i+1]
		if a.Op != c.Op || hasConsumer[i] || hasConsumer[i+1] {
			continue
		}
		if !slicesEqual(sorted[i], sorted[i+1]) || !slicesEqual(srcSet(i), srcSet(i+1)) {
			continue
		}
		out := b.Clone()
		out.Instrs[i], out.Instrs[i+1] = out.Instrs[i+1], out.Instrs[i]
		return out, true
	}
	return nil, false
}

func slicesEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
