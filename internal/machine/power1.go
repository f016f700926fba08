package machine

import "perfpredict/internal/ir"

// single builds a one-atomic-op expansion with one segment.
func single(name string, unit UnitKind, noncov, cov int) []AtomicOp {
	return []AtomicOp{{Name: name, Segments: []Segment{{Unit: unit, Noncov: noncov, Cov: cov}}}}
}

// ReferencePOWER1 is the seed hand-coded constructor for the IBM
// RS/6000 POWER target, kept as the differential oracle the embedded
// spec file (specs/power1.json) is proven byte-identical against. New
// code should obtain targets via NewPOWER1 (spec-loaded) or the
// registry.
//
// It models the IBM RS/6000 POWER architecture of the paper's
// examples: one fixed-point unit (which executes integer ops, loads,
// stores and address generation), one floating-point unit with a fused
// multiply-add pipeline, one branch unit and one condition-register
// logic unit. Cost values follow the paper where it states them:
//
//   - a floating-point add has one cycle of noncoverable and one cycle
//     of coverable cost on the FPU (§2.1);
//   - a floating-point store occupies the FPU for two cycles (one
//     coverable) and one integer-unit cycle (§2.1);
//   - integer multiply takes 3 cycles for multipliers in [−128, 127]
//     and 5 cycles in general (§2.2.1).
//
// Remaining latencies follow the published POWER1 pipeline (2-cycle
// loads, ~19-cycle divides, non-pipelined).
func ReferencePOWER1() *Machine {
	m := &Machine{
		Name:          "POWER1",
		UnitCounts:    map[UnitKind]int{FXU: 1, FPU: 1, BRU: 1, CRU: 1},
		DispatchWidth: 4,
		HasFMA:        true,
		LoadsPerStore: 0, // not read by pricing (see Machine.LoadsPerStore)
		BranchCost:    3,
		Table:         map[ir.Op][]AtomicOp{},
	}
	t := m.Table
	t[ir.OpIAdd] = single("a", FXU, 1, 0)
	t[ir.OpISub] = single("sf", FXU, 1, 0)
	t[ir.OpIMulSmall] = single("muls-s", FXU, 3, 0)
	t[ir.OpIMul] = single("muls", FXU, 5, 0)
	t[ir.OpIDiv] = single("divs", FXU, 19, 0)
	// Integer modulo: divide leaves the remainder in MQ; model as a
	// divide followed by a move (1 cycle).
	t[ir.OpIMod] = []AtomicOp{
		{Name: "divs", Segments: []Segment{{Unit: FXU, Noncov: 19}}},
		{Name: "mfmq", Segments: []Segment{{Unit: FXU, Noncov: 1}}},
	}
	t[ir.OpINeg] = single("neg", FXU, 1, 0)
	t[ir.OpIAbs] = single("abs", FXU, 1, 0)

	t[ir.OpFAdd] = single("fa", FPU, 1, 1)
	t[ir.OpFSub] = single("fs", FPU, 1, 1)
	t[ir.OpFMul] = single("fm", FPU, 1, 1)
	t[ir.OpFMA] = single("fma", FPU, 1, 1)
	t[ir.OpFMS] = single("fms", FPU, 1, 1)
	t[ir.OpFDiv] = single("fd", FPU, 19, 0)
	t[ir.OpFNeg] = single("fneg", FPU, 1, 0)
	t[ir.OpFAbs] = single("fabs", FPU, 1, 0)
	// POWER1 has no hardware sqrt: Newton iteration sequence in the FPU.
	t[ir.OpFSqrt] = single("fsqrt", FPU, 27, 0)
	// min/max compile to compare + select ≈ 2 FPU cycles.
	t[ir.OpFMin] = single("fmin", FPU, 2, 0)
	t[ir.OpFMax] = single("fmax", FPU, 2, 0)

	// Conversions round-trip through memory on POWER1 (store/reload);
	// model as FPU work plus an FXU cycle.
	t[ir.OpItoF] = []AtomicOp{{Name: "itof", Segments: []Segment{
		{Unit: FXU, Noncov: 1}, {Unit: FPU, Start: 1, Noncov: 1, Cov: 1},
	}}}
	t[ir.OpFtoI] = []AtomicOp{{Name: "ftoi", Segments: []Segment{
		{Unit: FPU, Noncov: 1, Cov: 1}, {Unit: FXU, Start: 2, Noncov: 1},
	}}}

	// Loads execute in the FXU: one noncoverable cycle of address
	// generation + cache access, one coverable cycle before the datum
	// is usable (2-cycle load-use latency).
	t[ir.OpILoad] = single("l", FXU, 1, 1)
	t[ir.OpFLoad] = single("lfd", FXU, 1, 1)
	t[ir.OpIStore] = single("st", FXU, 1, 0)
	// The paper's example: FP store occupies the FPU two cycles (one
	// coverable) and one FXU cycle.
	t[ir.OpFStore] = []AtomicOp{{Name: "stfd", Segments: []Segment{
		{Unit: FXU, Noncov: 1},
		{Unit: FPU, Noncov: 1, Cov: 1},
	}}}
	t[ir.OpAddr] = single("cal", FXU, 1, 0)

	// Compares write the condition register: one execution cycle plus a
	// coverable cycle before the branch unit can see the CR bit.
	t[ir.OpICmp] = single("cmp", FXU, 1, 1)
	t[ir.OpFCmp] = single("fcmp", FPU, 1, 1)
	// The CR-logic unit combines condition bits (crand etc.); the
	// branch itself is free when resolved early (zero-cycle branch
	// folding) but occupies the branch unit one cycle.
	t[ir.OpBranch] = single("bc", BRU, 1, 0)
	t[ir.OpJump] = single("b", BRU, 1, 0)
	// External calls: modelled via the library cost table; the base
	// cost here is the linkage overhead.
	t[ir.OpCall] = []AtomicOp{{Name: "bl", Segments: []Segment{
		{Unit: BRU, Noncov: 1}, {Unit: FXU, Noncov: 4},
	}}}
	t[ir.OpLoadImm] = single("lil", FXU, 1, 0)
	return m
}

// ReferenceSuperScalar2 is the seed hand-coded wider hypothetical superscalar: two fixed-point
// pipes, two floating-point pipes, shared branch/CR units, dispatch
// width 6, same per-op latencies as POWER1. It exercises the
// multiple-pipes ("more bins") case of the cost model.
func ReferenceSuperScalar2() *Machine {
	m := ReferencePOWER1()
	m.Name = "SuperScalar2"
	m.UnitCounts = map[UnitKind]int{FXU: 2, FPU: 2, BRU: 1, CRU: 1}
	m.DispatchWidth = 6
	return m
}

// ReferenceScalar1 is the seed hand-coded conventional sequential machine: a single unit, no
// overlap, every operation fully noncoverable at its POWER1 latency.
// It doubles as the "operation-count based cost model" baseline: on
// this machine the Tetris model degenerates to summing latencies.
func ReferenceScalar1() *Machine {
	p := ReferencePOWER1()
	m := &Machine{
		Name:          "Scalar1",
		UnitCounts:    map[UnitKind]int{UNI: 1},
		DispatchWidth: 1,
		HasFMA:        false,
		BranchCost:    p.BranchCost,
		Table:         map[ir.Op][]AtomicOp{},
	}
	for op, seq := range p.Table {
		total := 0
		for _, a := range seq {
			total += a.Latency()
		}
		if total == 0 {
			total = 1
		}
		m.Table[op] = single(op.String(), UNI, total, 0)
	}
	return m
}
