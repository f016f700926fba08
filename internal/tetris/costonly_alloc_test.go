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
	b.Append(ir.Instr{Op: ir.OpFLoad, Dst: 0, Addr: "a(i)", Base: "a"})
	b.Append(ir.Instr{Op: ir.OpFLoad, Dst: 1, Addr: "s", Base: "s"})
	for r := 2; r <= 12; r++ {
		in := ir.Instr{Op: ir.OpFAdd, Dst: ir.Reg(r)}
		for k := 0; k < srcs; k++ {
			in.Srcs = append(in.Srcs, ir.Reg(r-1-k%2))
		}
		b.Append(in)
	}
	b.Append(ir.Instr{Op: ir.OpFStore, Srcs: []ir.Reg{12}, Addr: "b(i)", Base: "b"})
	return b
}

// TestEstimateCostAllocatesNothing: with warm pooled scratch and a
// sealed target, a cost-only estimate allocates nothing at all.
func TestEstimateCostAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under -race")
	}
	for _, m := range []*machine.Machine{machine.NewPOWER1(), machine.NewSuperScalar2(), machine.NewScalar1()} {
		b := allocBlock(2)
		if _, err := EstimateCost(m, b, Options{}); err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(100, func() { _, _ = EstimateCost(m, b, Options{}) }); got != 0 {
			t.Errorf("%s: warm EstimateCost allocates %v times, want 0", m.Name, got)
		}
	}
}

// TestSteadyStateReplicatesIntoPooledStorage: a warm steady-state
// estimate allocates only the renamed address strings of the copies
// after the first (one per indexed memory operation per copy), never
// an Instrs or Srcs array, so the count does not move with the
// operand count.
func TestSteadyStateReplicatesIntoPooledStorage(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under -race")
	}
	m := machine.NewPOWER1()
	const iters = 4
	const want = 2 * (iters - 1) // "a(i)#k" and "b(i)#k"; scalar "s" is not renamed
	for _, srcs := range []int{1, 3, 8} {
		b := allocBlock(srcs)
		chain := map[ir.Reg]ir.Reg{1: 12}
		for _, c := range []map[ir.Reg]ir.Reg{nil, chain} {
			if _, _, err := SteadyStateChained(m, b, Options{}, iters, c); err != nil {
				t.Fatal(err)
			}
			got := testing.AllocsPerRun(100, func() { _, _, _ = SteadyStateChained(m, b, Options{}, iters, c) })
			if got != want {
				t.Errorf("%d operands per instruction, chain %v: %v allocations, want %d", srcs, c != nil, got, want)
			}
		}
	}
}
