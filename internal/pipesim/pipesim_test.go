package pipesim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"perfpredict/internal/ir"
	"perfpredict/internal/machine"
	"perfpredict/internal/tetris"
)

func fadd(dst ir.Reg, a, b ir.Reg) ir.Instr {
	return ir.Instr{Op: ir.OpFAdd, Dst: dst, Srcs: []ir.Reg{a, b}}
}

func run(t *testing.T, m *machine.Machine, b *ir.Block) Result {
	t.Helper()
	r, err := Run(m, b)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestSingleFAdd(t *testing.T) {
	m := machine.NewPOWER1()
	b := &ir.Block{}
	b.Append(fadd(0, 100, 101))
	r := run(t, m, b)
	if r.Cycles != 2 {
		t.Errorf("cycles = %d, want 2", r.Cycles)
	}
}

func TestIndependentStream(t *testing.T) {
	m := machine.NewPOWER1()
	b := &ir.Block{}
	for i := 0; i < 8; i++ {
		b.Append(fadd(ir.Reg(i), ir.Reg(100+i), ir.Reg(200+i)))
	}
	r := run(t, m, b)
	if r.Cycles != 9 {
		t.Errorf("cycles = %d, want 9 (pipelined)", r.Cycles)
	}
	if r.UnitBusy[machine.FPU] != 8 {
		t.Errorf("FPU busy = %d", r.UnitBusy[machine.FPU])
	}
}

func TestDependentChain(t *testing.T) {
	m := machine.NewPOWER1()
	b := &ir.Block{}
	b.Append(fadd(0, 100, 101))
	for i := 1; i < 6; i++ {
		b.Append(fadd(ir.Reg(i), ir.Reg(i-1), 101))
	}
	r := run(t, m, b)
	if r.Cycles != 12 {
		t.Errorf("cycles = %d, want 12", r.Cycles)
	}
}

func TestInOrderStall(t *testing.T) {
	m := machine.NewPOWER1()
	// A dependent pair followed by an independent add: in-order issue
	// lets the independent add start in the stall shadow only after the
	// stalled instruction issues — execution order matters.
	blocked := &ir.Block{}
	blocked.Append(ir.Instr{Op: ir.OpFLoad, Dst: 0, Addr: "a", Base: "a"})
	blocked.Append(fadd(1, 0, 100))   // waits 2 cycles for the load
	blocked.Append(fadd(2, 101, 102)) // independent
	r1 := run(t, m, blocked)

	reordered := Schedule(m, blocked)
	r2 := run(t, m, reordered)
	if r2.Cycles > r1.Cycles {
		t.Errorf("scheduling hurt: %d -> %d", r1.Cycles, r2.Cycles)
	}
}

func TestScheduleRespectsDeps(t *testing.T) {
	m := machine.NewPOWER1()
	b := &ir.Block{}
	b.Append(ir.Instr{Op: ir.OpFLoad, Dst: 0, Addr: "x(i)", Base: "x"})
	b.Append(fadd(1, 0, 100))
	b.Append(ir.Instr{Op: ir.OpFStore, Srcs: []ir.Reg{1}, Addr: "y(i)", Base: "y"})
	s := Schedule(m, b)
	// The store must come after the add, which must come after the load.
	pos := map[string]int{}
	for i, in := range s.Instrs {
		pos[in.Op.String()] = i
	}
	if !(pos["fload"] < pos["fadd"] && pos["fadd"] < pos["fstore"]) {
		t.Errorf("schedule broke deps:\n%s", s)
	}
}

func TestSchedulePrioritizesCriticalPath(t *testing.T) {
	m := machine.NewPOWER1()
	b := &ir.Block{}
	// A long fdiv chain entering late in program order should be
	// scheduled first.
	for i := 0; i < 4; i++ {
		b.Append(fadd(ir.Reg(i), ir.Reg(100+i), ir.Reg(200+i)))
	}
	b.Append(ir.Instr{Op: ir.OpFDiv, Dst: 10, Srcs: []ir.Reg{300, 301}})
	s := Schedule(m, b)
	if s.Instrs[0].Op != ir.OpFDiv {
		t.Errorf("critical op not first:\n%s", s)
	}
}

func TestMemoryOrdering(t *testing.T) {
	m := machine.NewPOWER1()
	b := &ir.Block{}
	b.Append(ir.Instr{Op: ir.OpFStore, Srcs: []ir.Reg{100}, Addr: "s", Base: "s"})
	b.Append(ir.Instr{Op: ir.OpFLoad, Dst: 0, Addr: "s", Base: "s"})
	r := run(t, m, b)
	// Load waits for the 2-cycle store, then takes 2 cycles.
	if r.Cycles != 4 {
		t.Errorf("store→load = %d, want 4", r.Cycles)
	}
	// Distinct addresses don't serialize.
	b2 := &ir.Block{}
	b2.Append(ir.Instr{Op: ir.OpFStore, Srcs: []ir.Reg{100}, Addr: "s", Base: "s"})
	b2.Append(ir.Instr{Op: ir.OpFLoad, Dst: 0, Addr: "t", Base: "t"})
	r2 := run(t, m, b2)
	if r2.Cycles >= 4 {
		t.Errorf("independent store/load = %d, want < 4", r2.Cycles)
	}
}

func TestDispatchWidth(t *testing.T) {
	s := machine.SpecOf(machine.NewSuperScalar2())
	s.DispatchWidth = 1
	m, err := s.Machine()
	if err != nil {
		t.Fatal(err)
	}
	b := &ir.Block{}
	for i := 0; i < 4; i++ {
		b.Append(ir.Instr{Op: ir.OpIAdd, Dst: ir.Reg(i), Srcs: []ir.Reg{ir.Reg(100 + i), ir.Reg(200 + i)}})
	}
	r := run(t, m, b)
	if r.Cycles != 4 {
		t.Errorf("width-1 cycles = %d, want 4", r.Cycles)
	}
}

func TestTwoPipesDoubleThroughput(t *testing.T) {
	m := machine.NewSuperScalar2()
	b := &ir.Block{}
	b.Append(ir.Instr{Op: ir.OpFDiv, Dst: 0, Srcs: []ir.Reg{100, 101}})
	b.Append(ir.Instr{Op: ir.OpFDiv, Dst: 1, Srcs: []ir.Reg{102, 103}})
	r := run(t, m, b)
	if r.Cycles != 19 {
		t.Errorf("2-pipe fdivs = %d, want 19", r.Cycles)
	}
}

func TestStreamingAcrossBlocks(t *testing.T) {
	m := machine.NewPOWER1()
	p := NewPipeline(m)
	// Feed two iterations of a loop body through the streaming API.
	for it := 0; it < 2; it++ {
		base := ir.Reg(it * 10)
		if _, err := p.Issue(ir.Instr{Op: ir.OpFLoad, Dst: base, Addr: "a", Base: "a"}); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Issue(fadd(base+1, base, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if p.Drain() <= 0 {
		t.Error("no cycles recorded")
	}
}

func TestEmptyBlock(t *testing.T) {
	m := machine.NewPOWER1()
	r := run(t, m, &ir.Block{})
	if r.Cycles != 0 {
		t.Errorf("empty cycles = %d", r.Cycles)
	}
}

// The central soundness property of the reproduction: for list-scheduled
// blocks, the Tetris prediction must track the simulated cycles closely
// (this is the claim Figure 7 demonstrates).
func TestQuickPredictionTracksSimulation(t *testing.T) {
	m := machine.NewPOWER1()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := &ir.Block{}
		n := 1 + r.Intn(24)
		for i := 0; i < n; i++ {
			ops := []ir.Op{ir.OpFAdd, ir.OpFMul, ir.OpFMA, ir.OpFLoad, ir.OpFStore, ir.OpIAdd}
			op := ops[r.Intn(len(ops))]
			in := ir.Instr{Op: op, Dst: ir.Reg(i)}
			switch {
			case op.IsLoad():
				in.Addr, in.Base = "x("+string(rune('a'+r.Intn(26)))+")", "x"
			case op.IsStore():
				in.Dst = ir.NoReg
				in.Srcs = []ir.Reg{srcReg(r, i)}
				in.Addr, in.Base = "y("+string(rune('a'+r.Intn(26)))+")", "y"
			case op == ir.OpFMA:
				in.Srcs = []ir.Reg{srcReg(r, i), srcReg(r, i), srcReg(r, i)}
			default:
				in.Srcs = []ir.Reg{srcReg(r, i), srcReg(r, i)}
			}
			b.Append(in)
		}
		sched := Schedule(m, b)
		sim, err := Run(m, sched)
		if err != nil {
			return false
		}
		pred, err := tetris.Estimate(m, b, tetris.Options{})
		if err != nil {
			return false
		}
		// The prediction tracks the in-order simulation: it may
		// overshoot by at most a few cycles (greedy program-order
		// placement vs. the list scheduler's reordering) and the
		// simulation stays within 3× of the prediction.
		if int64(pred.Cost) > sim.Cycles+4 {
			return false
		}
		return sim.Cycles <= 3*int64(pred.Cost)+4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func srcReg(r *rand.Rand, i int) ir.Reg {
	if i > 0 && r.Intn(2) == 0 {
		return ir.Reg(r.Intn(i))
	}
	return ir.Reg(1000 + r.Intn(40))
}
