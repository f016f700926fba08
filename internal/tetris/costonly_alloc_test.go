package tetris

import (
	"testing"

	"perfpredict/internal/ir"
	"perfpredict/internal/machine"
)

// allocBlock is a loop body with loads, stores and register chains:
// the shape cost-only calls price most often.
func allocBlock(srcs int) *ir.Block {
	b := &ir.Block{}
	b.Append(ir.Instr{Op: ir.OpFLoad, Dst: 0, Addr: b.Intern("a(i)"), Base: b.Intern("a")})
	b.Append(ir.Instr{Op: ir.OpFLoad, Dst: 1, Addr: b.Intern("s"), Base: b.Intern("s")})
	for r := 2; r <= 12; r++ {
		regs := make([]ir.Reg, srcs)
		for k := range regs {
			regs[k] = ir.Reg(r - 1 - k%2)
		}
		b.Append(ir.Instr{Op: ir.OpFAdd, Dst: ir.Reg(r)}, regs...)
	}
	b.Append(ir.Instr{Op: ir.OpFStore, Addr: b.Intern("b(i)"), Base: b.Intern("b")}, 12)
	return b
}

// TestEstimateCostAllocatesNothing: with a warm Scratch and a sealed
// target, a cost-only estimate allocates nothing at all. The Scratch is
// the test's own, not a pooled one, so the count holds under -race too.
func TestEstimateCostAllocatesNothing(t *testing.T) {
	var sc Scratch
	for _, m := range []*machine.Machine{machine.NewPOWER1(), machine.NewSuperScalar2(), machine.NewScalar1()} {
		b := allocBlock(2)
		if _, err := sc.EstimateCost(m, b, Options{}); err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(100, func() { _, _ = sc.EstimateCost(m, b, Options{}) }); got != 0 {
			t.Errorf("%s: warm EstimateCost allocates %v times, want 0", m.Name, got)
		}
	}
}

// TestSteadyStateReplicatesIntoPooledStorage: a warm steady-state
// estimate allocates nothing. The copies land in the Scratch's
// replicated block and tag their addresses by Sym arithmetic, whatever
// the operand count. The Scratch is the test's own, so the count holds
// under -race too.
func TestSteadyStateReplicatesIntoPooledStorage(t *testing.T) {
	var sc Scratch
	m := machine.NewPOWER1()
	const iters = 4
	const want = 0
	for _, srcs := range []int{1, 3, 8} {
		b := allocBlock(srcs)
		chain := map[ir.Reg]ir.Reg{1: 12}
		for _, c := range []map[ir.Reg]ir.Reg{nil, chain} {
			if _, _, err := sc.SteadyStateChained(m, b, Options{}, iters, c); err != nil {
				t.Fatal(err)
			}
			got := testing.AllocsPerRun(100, func() { _, _, _ = sc.SteadyStateChained(m, b, Options{}, iters, c) })
			if got != want {
				t.Errorf("%d operands per instruction, chain %v: %v allocations, want %d", srcs, c != nil, got, want)
			}
		}
	}
}
