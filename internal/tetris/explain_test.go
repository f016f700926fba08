package tetris

import (
	"reflect"
	"testing"
	"time"

	"perfpredict/internal/ir"
	"perfpredict/internal/machine"
)

func explained(t *testing.T, m *machine.Machine, b *ir.Block, opt Options) *Explanation {
	t.Helper()
	ex, err := EstimateExplained(m, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

// The explained result must be the plain result, and running the
// explained variant must not perturb the pooled scratch a following
// plain Estimate reuses (the inertness guarantee at this layer).
func TestExplainAgreesAndStaysInert(t *testing.T) {
	m := machine.NewPOWER1()
	b := &ir.Block{}
	for i := 0; i < 8; i++ {
		fadd(b, ir.Reg(i), ir.Reg(100+i), ir.Reg(200+i))
	}
	before := est(t, m, b, Options{})
	ex := explained(t, m, b, Options{})
	after := est(t, m, b, Options{})
	if !reflect.DeepEqual(before, ex.Result) {
		t.Errorf("explained result differs from Estimate: %+v vs %+v", ex.Result, before)
	}
	if !reflect.DeepEqual(before, after) {
		t.Errorf("plain Estimate changed after EstimateExplained: %+v vs %+v", before, after)
	}
}

// A chain of dependent adds is bound purely by dependences: the path
// must walk the whole chain on dep edges and explain the entire
// makespan.
func TestExplainDependentChainPath(t *testing.T) {
	m := machine.NewPOWER1()
	b := &ir.Block{}
	fadd(b, 0, 100, 101)
	for i := 1; i < 6; i++ {
		fadd(b, ir.Reg(i), ir.Reg(i-1), 101)
	}
	ex := explained(t, m, b, Options{})
	if len(ex.Path) != 6 {
		t.Fatalf("path length = %d, want 6 (whole chain): %+v", len(ex.Path), ex.Path)
	}
	if ex.Path[0].Edge != "" {
		t.Errorf("chain origin has edge %q, want none", ex.Path[0].Edge)
	}
	for _, s := range ex.Path[1:] {
		if s.Edge != EdgeDep {
			t.Errorf("step %d edge = %q, want dep", s.Instr, s.Edge)
		}
	}
	if ex.PathCycles != ex.Result.Cost {
		t.Errorf("PathCycles = %d, want full cost %d", ex.PathCycles, ex.Result.Cost)
	}
	if ex.DepHeight != ex.Result.End {
		t.Errorf("DepHeight = %d, want %d (chain is resource-free)", ex.DepHeight, ex.Result.End)
	}
}

// Independent adds on the single FPU are resource-bound: the FPU must
// be the bottleneck at full utilization, saturating at the first slot,
// and the path must contain resource edges naming it.
func TestExplainResourceBound(t *testing.T) {
	m := machine.NewPOWER1()
	b := &ir.Block{}
	for i := 0; i < 8; i++ {
		fadd(b, ir.Reg(i), ir.Reg(100+i), ir.Reg(200+i))
	}
	ex := explained(t, m, b, Options{})
	if ex.Bottleneck != machine.FPU {
		t.Fatalf("bottleneck = %q, want FPU (kinds %+v)", ex.Bottleneck, ex.Kinds)
	}
	if ex.BottleneckUtil <= 0 || ex.BottleneckUtil > 1 {
		t.Errorf("bottleneck utilization %v outside (0, 1]", ex.BottleneckUtil)
	}
	if ex.SaturatedAt != 0 {
		t.Errorf("SaturatedAt = %d, want 0 (FPU busy from the first slot)", ex.SaturatedAt)
	}
	resource := 0
	for _, s := range ex.Path {
		if s.Edge == EdgeResource {
			resource++
			if s.Unit != machine.FPU {
				t.Errorf("resource step %d contends %q, want FPU", s.Instr, s.Unit)
			}
		}
	}
	if resource == 0 {
		t.Errorf("no resource edges on the path of a resource-bound block: %+v", ex.Path)
	}
}

// Per-op placements cover every instruction and agree with PlaceTime.
func TestExplainOpPlacements(t *testing.T) {
	m := machine.NewPOWER1()
	b := &ir.Block{}
	b.Append(ir.Instr{Op: ir.OpFLoad, Dst: 0, Addr: b.Intern("a(i)"), Base: b.Intern("a")})
	fadd(b, 1, 0, 0)
	b.Append(ir.Instr{Op: ir.OpFStore, Dst: ir.NoReg, Addr: b.Intern("a(i)"), Base: b.Intern("a")}, 1)
	ex := explained(t, m, b, Options{})
	if len(ex.Finish) != 3 || len(ex.OpPipe) != 3 {
		t.Fatalf("got %d/%d op placements, want 3", len(ex.Finish), len(ex.OpPipe))
	}
	for i := range ex.Finish {
		if ex.Finish[i] < ex.Result.PlaceTime[i] {
			t.Errorf("op %d finish %d before its issue slot %d", i, ex.Finish[i], ex.Result.PlaceTime[i])
		}
		if ex.OpPipe[i] < 0 || ex.OpPipe[i] >= len(ex.Pipes) {
			t.Errorf("op %d (%s) has no recorded pipe", i, b.Instrs[i].Op)
		}
	}
}

// One more pipe of the bottleneck kind must not slow the block down,
// and for a resource-bound block it must strictly help.
func TestExplainWhatIf(t *testing.T) {
	m := machine.NewPOWER1()
	b := &ir.Block{}
	for i := 0; i < 8; i++ {
		fadd(b, ir.Reg(i), ir.Reg(100+i), ir.Reg(200+i))
	}
	ex := explained(t, m, b, Options{})
	if err := ex.ComputeWhatIf(m, b, Options{}); err != nil {
		t.Fatal(err)
	}
	w := ex.WhatIf
	if w == nil {
		t.Fatal("no what-if on a nonempty block")
	}
	if w.Unit != machine.FPU || w.Pipes != m.UnitCounts[machine.FPU]+1 {
		t.Errorf("what-if = %+v, want one more FPU pipe", w)
	}
	if w.Cost > ex.Result.Cost {
		t.Errorf("one more pipe raised the cost: %d > %d", w.Cost, ex.Result.Cost)
	}
	if w.Speedup <= 1 {
		t.Errorf("speedup = %v, want > 1 for an FPU-bound block", w.Speedup)
	}
}

// Per-pipe and per-kind utilizations stay within [0, 1] and the
// bottleneck has the maximum per-kind utilization.
func TestExplainUtilizationBounds(t *testing.T) {
	m := machine.NewPOWER1()
	b := &ir.Block{}
	b.Append(ir.Instr{Op: ir.OpFLoad, Dst: 0, Addr: b.Intern("a(i)"), Base: b.Intern("a")})
	b.Append(ir.Instr{Op: ir.OpFLoad, Dst: 1, Addr: b.Intern("b(i)"), Base: b.Intern("b")})
	fadd(b, 2, 0, 1)
	b.Append(ir.Instr{Op: ir.OpFStore, Dst: ir.NoReg, Addr: b.Intern("c(i)"), Base: b.Intern("c")}, 2)
	ex := explained(t, m, b, Options{})
	for _, p := range ex.Pipes {
		if p.Utilization < 0 || p.Utilization > 1 {
			t.Errorf("pipe %s utilization %v outside [0,1]", p.Pipe, p.Utilization)
		}
	}
	for _, k := range ex.Kinds {
		if k.Utilization < 0 || k.Utilization > 1 {
			t.Errorf("kind %s utilization %v outside [0,1]", k.Kind, k.Utilization)
		}
		if k.Utilization > ex.BottleneckUtil {
			t.Errorf("kind %s utilization %v exceeds bottleneck %s at %v",
				k.Kind, k.Utilization, ex.Bottleneck, ex.BottleneckUtil)
		}
	}
}

// BenchmarkExplain prices the kernel suite through EstimateExplained —
// the -benchtime 1x CI smoke for the diagnosis path.
func BenchmarkExplain(b *testing.B) {
	blocks := kernelSuiteBlocks(b)
	m := machine.NewPOWER1()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, blk := range blocks {
			if _, err := EstimateExplained(m, blk, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// The explain overhead budget, stated on quantities that do not move
// with load. explainExtraAllocs bounds the objects EstimateExplained may
// allocate per block beyond what a plain Estimate allocates — the
// explanation and its per-op, per-kind and path arrays.
// explainVisitsPerInstr bounds the work of the passes after placement
// (placeRecorder.visited) per instruction of the kernel suite, 7.01
// measured; a pass over the block, its segments or its path adds about
// one visit per instruction.
const (
	explainExtraAllocs    = 6
	explainVisitsPerInstr = 7.5
)

// BenchmarkExplainGuard enforces the explain overhead budget on the
// kernel suite with the pooled scratch warm: the allocations per block
// of EstimateExplained over plain Estimate, and the instructions,
// segments and path steps its passes after placement visit per
// instruction. An extra pass that builds an array breaks the first; one
// that allocates nothing breaks the second. The wall-clock ratio, best
// of several rounds taken alternately, is reported as explain/plain but
// not gated: on a shared 2-CPU machine it sits near 2×, where
// scheduling noise alone decided a time budget.
func BenchmarkExplainGuard(b *testing.B) {
	blocks := kernelSuiteBlocks(b)
	m := machine.NewPOWER1()
	plainRun := func() {
		for _, blk := range blocks {
			if _, err := Estimate(m, blk, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}
	visits, instrs := 0, 0
	explRun := func() {
		visits, instrs = 0, 0
		for _, blk := range blocks {
			ex, err := EstimateExplained(m, blk, Options{})
			if err != nil {
				b.Fatal(err)
			}
			visits, instrs = visits+ex.visited, instrs+len(blk.Instrs)
		}
	}
	explRun() // warm the pooled scratch and caches before measuring either side
	const reps, rounds = 20, 5
	timeIt := func(f func()) time.Duration {
		start := time.Now()
		for i := 0; i < reps; i++ {
			f()
		}
		return time.Since(start)
	}
	plain, expl := time.Duration(1<<63-1), time.Duration(1<<63-1)
	for r := 0; r < rounds; r++ {
		plain, expl = min(plain, timeIt(plainRun)), min(expl, timeIt(explRun))
	}
	b.ReportMetric(float64(expl)/float64(plain), "explain/plain")

	perInstr := float64(visits) / float64(instrs)
	b.ReportMetric(perInstr, "visits/instr")
	if perInstr > explainVisitsPerInstr {
		b.Fatalf("explain's passes after placement visit %.2f items per instruction, budget is %.2f",
			perInstr, explainVisitsPerInstr)
	}
	perBlock := func(f func()) float64 { return testing.AllocsPerRun(reps, f) / float64(len(blocks)) }
	extra := perBlock(explRun) - perBlock(plainRun)
	b.ReportMetric(extra, "extra-allocs/block")
	// A quarter of an allocation per block absorbs a pool refilled
	// after a GC; one more array per block does not fit.
	if extra > explainExtraAllocs+0.25 {
		b.Fatalf("EstimateExplained allocates %.2f objects per block beyond plain Estimate, budget is %d",
			extra, explainExtraAllocs)
	}
}
