package pipesim

import (
	"testing"

	"perfpredict/internal/ir"
	"perfpredict/internal/machine"
)

// The decoupled queues: an FXU load after a stalled FPU chain issues
// without waiting for the chain (POWER's FXU runs ahead).
func TestDecoupledUnitsRunAhead(t *testing.T) {
	m := machine.NewPOWER1()
	p := NewPipeline(m)
	tb := &ir.Block{}
	// Long dependent FPU chain.
	if _, err := issue(p, tb, ir.Instr{Op: ir.OpFDiv, Dst: 0}, 100, 101); err != nil {
		t.Fatal(err)
	}
	if _, err := issue(p, tb, ir.Instr{Op: ir.OpFAdd, Dst: 1}, 0, 100); err != nil {
		t.Fatal(err)
	}
	// An independent load must not wait the ~20 cycles of the chain.
	at, err := issue(p, tb, ir.Instr{Op: ir.OpFLoad, Dst: 2, Addr: tb.Intern("a"), Base: tb.Intern("a")})
	if err != nil {
		t.Fatal(err)
	}
	if at > 2 {
		t.Errorf("load issued at %d; FXU should run ahead of the FPU", at)
	}
}

// Same-unit queue order still holds: two FXU ops issue in order even
// when the second has no dependences.
func TestSameQueueInOrder(t *testing.T) {
	m := machine.NewPOWER1()
	p := NewPipeline(m)
	tb := &ir.Block{}
	// A load whose result gates nothing, followed by a dependent int op
	// and then an independent int op.
	t0, _ := issue(p, tb, ir.Instr{Op: ir.OpILoad, Dst: 0, Addr: tb.Intern("a"), Base: tb.Intern("a")})
	t1, _ := issue(p, tb, ir.Instr{Op: ir.OpIAdd, Dst: 1}, 0, 100)
	t2, _ := issue(p, tb, ir.Instr{Op: ir.OpIAdd, Dst: 2}, 100, 101)
	if !(t0 <= t1 && t1 <= t2) {
		t.Errorf("FXU queue order violated: %d %d %d", t0, t1, t2)
	}
	// t1 waits the load latency; t2 cannot jump ahead of t1 (in-order
	// queue) even though its operands are ready.
	if t2 < t1 {
		t.Errorf("independent op overtook within one queue: %d < %d", t2, t1)
	}
}

// Buffered stores: a store whose FP datum is late does not hold up the
// FXU queue, but its memory effect completes only after the datum.
func TestStoreBuffering(t *testing.T) {
	m := machine.NewPOWER1()
	p := NewPipeline(m)
	tb := &ir.Block{}
	// Produce a slow FP value.
	issue(p, tb, ir.Instr{Op: ir.OpFDiv, Dst: 0}, 100, 101)
	// Store it (datum ready ≈ cycle 19).
	stAt, _ := issue(p, tb, ir.Instr{Op: ir.OpFStore, Addr: tb.Intern("s"), Base: tb.Intern("s")}, 0)
	// An independent integer op on the FXU right after.
	addAt, _ := issue(p, tb, ir.Instr{Op: ir.OpIAdd, Dst: 1}, 100, 101)
	if addAt > stAt+2 {
		t.Errorf("buffered store blocked the FXU: store@%d add@%d", stAt, addAt)
	}
	// A load of the stored address must observe the datum (≥ div
	// latency).
	ldAt, _ := issue(p, tb, ir.Instr{Op: ir.OpFLoad, Dst: 2, Addr: tb.Intern("s"), Base: tb.Intern("s")})
	if ldAt < 19 {
		t.Errorf("load bypassed the pending store's datum: @%d", ldAt)
	}
}

// Cross-machine sanity: a parallel block runs no slower on wider
// machines.
func TestMachineOrderingOnParallelBlock(t *testing.T) {
	b := &ir.Block{}
	for i := 0; i < 12; i++ {
		b.Append(ir.Instr{Op: ir.OpFAdd, Dst: ir.Reg(i)}, ir.Reg(100+i), ir.Reg(200+i))
		b.Append(ir.Instr{Op: ir.OpIAdd, Dst: ir.Reg(50 + i)}, ir.Reg(300+i), ir.Reg(400+i))
	}
	var cycles []int64
	for _, m := range []*machine.Machine{machine.NewScalar1(), machine.NewPOWER1(), machine.NewSuperScalar2()} {
		r, err := RunScheduled(m, b)
		if err != nil {
			t.Fatal(err)
		}
		cycles = append(cycles, r.Cycles)
	}
	if !(cycles[0] > cycles[1] && cycles[1] >= cycles[2]) {
		t.Errorf("machine ordering: scalar %d, power %d, wide %d", cycles[0], cycles[1], cycles[2])
	}
}

func TestPruneKeepsTimingExact(t *testing.T) {
	m := machine.NewPOWER1()
	run := func(prune bool) int64 {
		p := NewPipeline(m)
		tb := &ir.Block{}
		for i := 0; i < 2000; i++ {
			issue(p, tb, ir.Instr{Op: ir.OpFLoad, Dst: ir.Reg(2 * i), Addr: tb.Intern(itoaAddr(i)), Base: tb.Intern("a")})
			issue(p, tb, ir.Instr{Op: ir.OpFAdd, Dst: ir.Reg(2*i + 1)}, ir.Reg(2*i), 100000)
			if prune && i%64 == 0 {
				p.Prune()
			}
		}
		return p.Drain()
	}
	if a, b := run(false), run(true); a != b {
		t.Errorf("pruning changed timing: %d vs %d", a, b)
	}
}

func itoaAddr(i int) string {
	return "a(" + string(rune('0'+i%10)) + string(rune('0'+(i/10)%10)) + string(rune('0'+(i/100)%10)) + ")"
}

func TestScoreboardPruneBounds(t *testing.T) {
	m := machine.NewPOWER1()
	p := NewPipeline(m)
	tb := &ir.Block{}
	for i := 0; i < 10000; i++ {
		issue(p, tb, ir.Instr{Op: ir.OpIAdd, Dst: ir.Reg(i)}, ir.Reg(i-1), 100000)
		if i%512 == 0 {
			p.Prune()
		}
	}
	p.Prune()
	if n := p.ScoreboardSize(); n > 1024 {
		t.Errorf("scoreboard grew to %d entries despite pruning", n)
	}
}
