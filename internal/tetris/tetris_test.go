package tetris

import (
	"testing"

	"perfpredict/internal/ir"
	"perfpredict/internal/machine"
)

func est(t *testing.T, m *machine.Machine, b *ir.Block, opt Options) Result {
	t.Helper()
	r, err := Estimate(m, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func fadd(blk *ir.Block, dst ir.Reg, a, b ir.Reg) {
	blk.Append(ir.Instr{Op: ir.OpFAdd, Dst: dst}, a, b)
}

// The paper's motivating example: a lone FP add costs two cycles (one
// noncoverable + one coverable), but if another independent operation
// fills the coverable cycle the pair streams at one per cycle.
func TestSingleFAddCostsTwo(t *testing.T) {
	m := machine.NewPOWER1()
	b := &ir.Block{}
	fadd(b, 0, 100, 101)
	r := est(t, m, b, Options{})
	if r.Cost != 2 {
		t.Errorf("single fadd cost = %d, want 2", r.Cost)
	}
}

func TestIndependentFAddsPipeline(t *testing.T) {
	m := machine.NewPOWER1()
	b := &ir.Block{}
	for i := 0; i < 8; i++ {
		fadd(b, ir.Reg(i), ir.Reg(100+i), ir.Reg(200+i))
	}
	r := est(t, m, b, Options{})
	// 8 independent adds: one issues per cycle (noncov 1), last finishes
	// at 8+1 = 9 cycles.
	if r.Cost != 9 {
		t.Errorf("8 independent fadds cost = %d, want 9", r.Cost)
	}
}

func TestDependentFAddChainSerializes(t *testing.T) {
	m := machine.NewPOWER1()
	b := &ir.Block{}
	fadd(b, 0, 100, 101)
	for i := 1; i < 6; i++ {
		fadd(b, ir.Reg(i), ir.Reg(i-1), 101)
	}
	r := est(t, m, b, Options{})
	// Each add must wait the full 2-cycle latency of its predecessor.
	if r.Cost != 12 {
		t.Errorf("chain of 6 dependent fadds = %d, want 12", r.Cost)
	}
}

func TestDependenceFilterIgnoredAblation(t *testing.T) {
	m := machine.NewPOWER1()
	b := &ir.Block{}
	fadd(b, 0, 100, 101)
	for i := 1; i < 6; i++ {
		fadd(b, ir.Reg(i), ir.Reg(i-1), 101)
	}
	r := est(t, m, b, Options{IgnoreDeps: true})
	// Pure bin packing: 6 ops at 1/cycle + trailing coverable.
	if r.Cost != 7 {
		t.Errorf("no-deps cost = %d, want 7", r.Cost)
	}
}

func TestFStoreOccupiesBothUnits(t *testing.T) {
	m := machine.NewPOWER1()
	b := &ir.Block{}
	b.Append(ir.Instr{Op: ir.OpFStore, Addr: b.Intern("s"), Base: b.Intern("s")}, 100)
	r := est(t, m, b, Options{})
	if r.Cost != 2 {
		t.Errorf("fstore cost = %d, want 2", r.Cost)
	}
	if r.Shape.Busy(machine.FPU) != 1 || r.Shape.Busy(machine.FXU) != 1 {
		t.Errorf("fstore busy = %+v", r.Shape)
	}
}

func TestLoadsAndAddsOverlapAcrossUnits(t *testing.T) {
	m := machine.NewPOWER1()
	// Independent: load into r0 and an add of unrelated regs overlap
	// fully (different units).
	b := &ir.Block{}
	b.Append(ir.Instr{Op: ir.OpFLoad, Dst: 0, Addr: b.Intern("a(i)"), Base: b.Intern("a")})
	fadd(b, 1, 100, 101)
	r := est(t, m, b, Options{})
	if r.Cost != 2 {
		t.Errorf("independent load+add = %d, want 2 (full overlap)", r.Cost)
	}
	// Dependent: add uses the loaded value → must wait 2-cycle load-use.
	b2 := &ir.Block{}
	b2.Append(ir.Instr{Op: ir.OpFLoad, Dst: 0, Addr: b2.Intern("a(i)"), Base: b2.Intern("a")})
	fadd(b2, 1, 0, 101)
	r2 := est(t, m, b2, Options{})
	if r2.Cost != 4 {
		t.Errorf("dependent load+add = %d, want 4", r2.Cost)
	}
}

// Matmul-style stream: 16 independent FMAs issue one per cycle.
func TestSixteenFMAsStream(t *testing.T) {
	m := machine.NewPOWER1()
	b := &ir.Block{}
	for i := 0; i < 16; i++ {
		b.Append(ir.Instr{Op: ir.OpFMA, Dst: ir.Reg(i)}, ir.Reg(100+i), ir.Reg(200+i), ir.Reg(300+i))
	}
	r := est(t, m, b, Options{})
	if r.Cost != 17 {
		t.Errorf("16 FMAs = %d, want 17", r.Cost)
	}
	u, util := r.Shape.CriticalUnit()
	if u != machine.FPU {
		t.Errorf("critical unit = %s", u)
	}
	if util < 0.9 {
		t.Errorf("FPU utilization = %v", util)
	}
}

func TestNonPipelinedDivideBlocks(t *testing.T) {
	m := machine.NewPOWER1()
	b := &ir.Block{}
	b.Append(ir.Instr{Op: ir.OpFDiv, Dst: 0}, 100, 101)
	b.Append(ir.Instr{Op: ir.OpFDiv, Dst: 1}, 102, 103)
	r := est(t, m, b, Options{})
	// Two independent divides on one non-pipelined FPU: 19+19.
	if r.Cost != 38 {
		t.Errorf("two fdivs = %d, want 38", r.Cost)
	}
}

func TestSuperScalar2DoublesThroughput(t *testing.T) {
	m2 := machine.NewSuperScalar2()
	b := &ir.Block{}
	b.Append(ir.Instr{Op: ir.OpFDiv, Dst: 0}, 100, 101)
	b.Append(ir.Instr{Op: ir.OpFDiv, Dst: 1}, 102, 103)
	r := est(t, m2, b, Options{})
	// Two FPU pipes: both divides run concurrently.
	if r.Cost != 19 {
		t.Errorf("two fdivs on 2 pipes = %d, want 19", r.Cost)
	}
}

func TestScalarMachineSumsLatencies(t *testing.T) {
	m := machine.NewScalar1()
	b := &ir.Block{}
	b.Append(ir.Instr{Op: ir.OpFLoad, Dst: 0, Addr: b.Intern("a"), Base: b.Intern("a")})
	fadd(b, 1, 0, 100)
	b.Append(ir.Instr{Op: ir.OpFStore, Addr: b.Intern("b"), Base: b.Intern("b")}, 1)
	r := est(t, m, b, Options{})
	p := machine.NewPOWER1()
	want := p.Latency(ir.OpFLoad) + p.Latency(ir.OpFAdd) + p.Latency(ir.OpFStore)
	if r.Cost != want {
		t.Errorf("scalar cost = %d, want %d", r.Cost, want)
	}
}

func TestMultiAtomicExpansionSerial(t *testing.T) {
	m := machine.NewPOWER1()
	b := &ir.Block{}
	b.Append(ir.Instr{Op: ir.OpIMod, Dst: 0}, 100, 101)
	r := est(t, m, b, Options{})
	// divs (19) then mfmq (1).
	if r.Cost != 20 {
		t.Errorf("imod = %d, want 20", r.Cost)
	}
}

// withDispatch returns m rebuilt from its spec with dispatch width w.
func withDispatch(tb testing.TB, m *machine.Machine, w int) *machine.Machine {
	tb.Helper()
	s := machine.SpecOf(m)
	s.DispatchWidth = w
	out, err := s.Machine()
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

func TestDispatchWidthLimits(t *testing.T) {
	m := machine.NewSuperScalar2()
	b := &ir.Block{}
	// 4 independent integer adds; with width 1 they serialize even
	// though two FXU pipes exist.
	for i := 0; i < 4; i++ {
		b.Append(ir.Instr{Op: ir.OpIAdd, Dst: ir.Reg(i)}, ir.Reg(100+i), ir.Reg(200+i))
	}
	wide := est(t, m, b, Options{})
	narrow := est(t, withDispatch(t, m, 1), b, Options{})
	if wide.Cost != 2 {
		t.Errorf("2-pipe cost = %d, want 2", wide.Cost)
	}
	if narrow.Cost != 4 {
		t.Errorf("width-1 cost = %d, want 4", narrow.Cost)
	}
}

func TestFocusSpanTradesAccuracy(t *testing.T) {
	m := machine.NewPOWER1()
	// A long FXU stream with one late independent FPU op: unlimited
	// focus span lets the FPU op drop to the very bottom.
	b := &ir.Block{}
	for i := 0; i < 20; i++ {
		b.Append(ir.Instr{Op: ir.OpIAdd, Dst: ir.Reg(i)}, ir.Reg(100+i), ir.Reg(200+i))
	}
	fadd(b, 50, 300, 301)
	full := est(t, m, b, Options{})
	tight := est(t, m, b, Options{FocusSpan: 2})
	if full.Cost > tight.Cost {
		t.Errorf("focus span should never reduce cost: full=%d tight=%d", full.Cost, tight.Cost)
	}
	if full.Cost != 20 {
		t.Errorf("full cost = %d, want 20 (fadd hidden)", full.Cost)
	}
}

func TestMemoryDependenceHonored(t *testing.T) {
	m := machine.NewPOWER1()
	b := &ir.Block{}
	b.Append(ir.Instr{Op: ir.OpFStore, Addr: b.Intern("s"), Base: b.Intern("s")}, 100)
	b.Append(ir.Instr{Op: ir.OpFLoad, Dst: 0, Addr: b.Intern("s"), Base: b.Intern("s")})
	r := est(t, m, b, Options{})
	// Load must wait for the store's 2-cycle completion, then 2 more.
	if r.Cost != 4 {
		t.Errorf("store→load = %d, want 4", r.Cost)
	}
}

func TestEmptyBlock(t *testing.T) {
	m := machine.NewPOWER1()
	r := est(t, m, &ir.Block{}, Options{})
	if r.Cost != 0 {
		t.Errorf("empty block cost = %d", r.Cost)
	}
}

func TestPlaceTimesMonotoneWithDeps(t *testing.T) {
	m := machine.NewPOWER1()
	b := &ir.Block{}
	b.Append(ir.Instr{Op: ir.OpFLoad, Dst: 0, Addr: b.Intern("a(i)"), Base: b.Intern("a")})
	fadd(b, 1, 0, 100)
	b.Append(ir.Instr{Op: ir.OpFStore, Addr: b.Intern("b(i)"), Base: b.Intern("b")}, 1)
	r := est(t, m, b, Options{})
	// The add waits for the load's full latency.
	if !(r.PlaceTime[0] < r.PlaceTime[1]) {
		t.Errorf("add before its load: %v", r.PlaceTime)
	}
	// The store's unit slots are buffered (may execute early), but the
	// block's cost covers the datum arrival: add finish + 1.
	if r.Cost < r.PlaceTime[1]+m.Latency(ir.OpFAdd)+1 {
		t.Errorf("cost %d does not cover the store's datum (places %v)", r.Cost, r.PlaceTime)
	}
}
