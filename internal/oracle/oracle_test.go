package oracle

import (
	"reflect"
	"testing"

	"perfpredict/internal/ir"
	"perfpredict/internal/machine"
	"perfpredict/internal/tetris"
)

// toyMachine has one slow pipe (K1), one fast pipe (K2) and three
// mapped ops, enough to exercise ordering effects.
func toyMachine() *machine.Machine {
	return &machine.Machine{
		Name:          "Toy",
		UnitCounts:    map[machine.UnitKind]int{"K1": 1, "K2": 1},
		DispatchWidth: 4,
		Table: map[ir.Op][]machine.AtomicOp{
			ir.OpIAdd: {{Name: "add", Segments: []machine.Segment{{Unit: "K1", Noncov: 1}}}},
			// A 1-cycle issue with a long coverable tail: the classic
			// case where issuing it early hides its latency.
			ir.OpFSqrt: {{Name: "sqrt", Segments: []machine.Segment{{Unit: "K1", Noncov: 1, Cov: 10}}}},
			ir.OpFAdd:  {{Name: "fadd", Segments: []machine.Segment{{Unit: "K2", Noncov: 1}}}},
		},
	}
}

// hoistBlock is 4 independent adds, an independent sqrt, and an fadd
// consuming the sqrt. Program order prices the sqrt last on its pipe,
// exposing its full latency; the optimal order issues it first.
func hoistBlock() *ir.Block {
	b := &ir.Block{}
	for r := ir.Reg(0); r < 4; r++ {
		b.Append(ir.Instr{Op: ir.OpIAdd, Dst: 10 + r})
	}
	b.Append(ir.Instr{Op: ir.OpFSqrt, Dst: 20})
	b.Append(ir.Instr{Op: ir.OpFAdd, Dst: 21}, 20)
	return b
}

func TestPackBeatsProgramOrder(t *testing.T) {
	m := toyMachine()
	b := hoistBlock()
	approx, err := tetris.Estimate(m, b, tetris.Options{})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := Pack(m, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !exact.Proven {
		t.Fatalf("search did not complete on a 6-op block (nodes=%d)", exact.Nodes)
	}
	// Greedy: adds at K1 slots 0-3, sqrt at 4 with latency through 15,
	// fadd at 15 -> cost 16. Optimal: sqrt first -> cost 12.
	if approx.Cost != 16 {
		t.Errorf("approx cost = %d, want 16", approx.Cost)
	}
	if exact.Cost != 12 {
		t.Errorf("exact cost = %d, want 12", exact.Cost)
	}
	if exact.Cost > approx.Cost {
		t.Errorf("oracle %d exceeds approximation %d", exact.Cost, approx.Cost)
	}
	// The winning order must schedule the sqrt (index 4) first.
	if exact.Order[0] != 4 {
		t.Errorf("best order %v does not issue the sqrt first", exact.Order)
	}
}

func TestGreedyInOrderMatchesTetris(t *testing.T) {
	m, err := machine.Lookup("POWER1")
	if err != nil {
		t.Fatal(err)
	}
	blocks := map[string]*ir.Block{
		"hoist": hoistBlock(),
		"daxpy": func() *ir.Block {
			b := &ir.Block{}
			i0 := b.Append(ir.Instr{Op: ir.OpFLoad, Dst: 0, Addr: b.Intern("x(i)"), Base: b.Intern("x")})
			i1 := b.Append(ir.Instr{Op: ir.OpFLoad, Dst: 1, Addr: b.Intern("y(i)"), Base: b.Intern("y")})
			i2 := b.Append(ir.Instr{Op: ir.OpFMA, Dst: 2}, ir.Reg(i0), ir.Reg(i1), 3)
			_ = i2
			b.Append(ir.Instr{Op: ir.OpFStore, Addr: b.Intern("y(i)"), Base: b.Intern("y")}, 2)
			return b
		}(),
		"mixed": func() *ir.Block {
			b := &ir.Block{}
			b.Append(ir.Instr{Op: ir.OpLoadImm, Dst: 0})
			b.Append(ir.Instr{Op: ir.OpIAdd, Dst: 1}, 0, 0)
			b.Append(ir.Instr{Op: ir.OpFLoad, Dst: 2, Addr: b.Intern("a(i)"), Base: b.Intern("a")})
			b.Append(ir.Instr{Op: ir.OpFMul, Dst: 3}, 2, 2)
			b.Append(ir.Instr{Op: ir.OpFDiv, Dst: 4}, 3, 2)
			b.Append(ir.Instr{Op: ir.OpFStore, Addr: b.Intern("b(i)"), Base: b.Intern("b")}, 4)
			b.Append(ir.Instr{Op: ir.OpICmp, Dst: 5}, 1, 0)
			b.Append(ir.Instr{Op: ir.OpBranch}, 5)
			return b
		}(),
	}
	for name, b := range blocks {
		for _, mayAlias := range []bool{false, true} {
			want, err := tetris.Estimate(m, b, tetris.Options{MayAlias: mayAlias})
			if err != nil {
				t.Fatalf("%s: tetris: %v", name, err)
			}
			got, err := GreedyInOrder(m, b, Options{MayAlias: mayAlias})
			if err != nil {
				t.Fatalf("%s: oracle greedy: %v", name, err)
			}
			if got.Cost != want.Cost || got.Start != want.Start || got.End != want.End {
				t.Errorf("%s (mayAlias=%v): oracle greedy (%d,%d,%d) != tetris (%d,%d,%d)",
					name, mayAlias, got.Cost, got.Start, got.End, want.Cost, want.Start, want.End)
			}
			if !reflect.DeepEqual(got.PlaceTime, want.PlaceTime) {
				t.Errorf("%s (mayAlias=%v): issue slots %v != %v", name, mayAlias, got.PlaceTime, want.PlaceTime)
			}
			if !reflect.DeepEqual(got.Shape, want.Shape) {
				t.Errorf("%s (mayAlias=%v): shape %+v != %+v", name, mayAlias, got.Shape, want.Shape)
			}
		}
	}
}

func TestPackRespectsDependences(t *testing.T) {
	m, err := machine.Lookup("POWER1")
	if err != nil {
		t.Fatal(err)
	}
	// A pure chain: only one topological order exists, so the oracle
	// must agree with the approximation exactly.
	b := &ir.Block{}
	prev := b.Append(ir.Instr{Op: ir.OpFAdd, Dst: 0})
	for r := ir.Reg(1); r < 6; r++ {
		prev = b.Append(ir.Instr{Op: ir.OpFAdd, Dst: r}, ir.Reg(prev-0))
		_ = prev
	}
	approx, err := tetris.Estimate(m, b, tetris.Options{})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := Pack(m, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !exact.Proven {
		t.Fatal("chain search did not complete")
	}
	if exact.Cost != approx.Cost {
		t.Errorf("chain: exact %d != approx %d", exact.Cost, approx.Cost)
	}
}

func TestPackCapsAndBudget(t *testing.T) {
	m, err := machine.Lookup("POWER1")
	if err != nil {
		t.Fatal(err)
	}
	b := &ir.Block{}
	for r := ir.Reg(0); r < 30; r++ {
		b.Append(ir.Instr{Op: ir.OpIAdd, Dst: r})
	}
	if _, err := Pack(m, b, Options{}); err == nil {
		t.Error("30-op block accepted despite the default 24-op cap")
	}
	// With a raised cap and a tiny budget the search truncates but
	// still returns the program-order incumbent.
	small := &ir.Block{}
	for r := ir.Reg(0); r < 12; r++ {
		small.Append(ir.Instr{Op: ir.OpIAdd, Dst: r})
	}
	res, err := Pack(m, small, Options{NodeBudget: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Proven {
		t.Error("5-node budget reported a proven optimum over 12 independent ops")
	}
	approx, err := tetris.Estimate(m, small, tetris.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost > approx.Cost {
		t.Errorf("truncated search cost %d exceeds approximation %d", res.Cost, approx.Cost)
	}
}

func TestPackRejectsImpossibleExpansion(t *testing.T) {
	// Two same-kind segments in one atomic op on a 1-pipe machine can
	// never place (each segment needs its own pipe); the oracle must
	// refuse up front instead of scanning forever.
	m := &machine.Machine{
		Name:          "OnePipe",
		UnitCounts:    map[machine.UnitKind]int{"U": 1},
		DispatchWidth: 1,
		Table: map[ir.Op][]machine.AtomicOp{
			ir.OpIAdd: {{Name: "wide", Segments: []machine.Segment{
				{Unit: "U", Noncov: 1},
				{Unit: "U", Start: 2, Noncov: 1},
			}}},
		},
	}
	b := &ir.Block{}
	b.Append(ir.Instr{Op: ir.OpIAdd, Dst: 0})
	if _, err := Pack(m, b, Options{}); err == nil {
		t.Error("expansion needing 2 pipes of a 1-pipe kind accepted")
	}
}
