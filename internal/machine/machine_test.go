package machine

import (
	"testing"

	"perfpredict/internal/ir"
)

func TestAllMachinesValidate(t *testing.T) {
	for _, m := range []*Machine{NewPOWER1(), NewSuperScalar2(), NewScalar1()} {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

func TestPOWER1PaperCosts(t *testing.T) {
	m := NewPOWER1()
	// "each floating-point add operation has one cycle of noncoverable
	// cost and one cycle of coverable cost on the floating point unit"
	fadd, err := m.Lookup(ir.OpFAdd)
	if err != nil {
		t.Fatal(err)
	}
	if len(fadd) != 1 || len(fadd[0].Segments) != 1 {
		t.Fatalf("fadd expansion: %+v", fadd)
	}
	seg := fadd[0].Segments[0]
	if seg.Unit != FPU || seg.Noncov != 1 || seg.Cov != 1 {
		t.Errorf("fadd segment = %+v", seg)
	}
	if fadd[0].Latency() != 2 {
		t.Errorf("fadd latency = %d", fadd[0].Latency())
	}
	// "a floating point store operation will occupy one floating point
	// unit for two cycles with one cycle being coverable and will occupy
	// one integer unit for one cycle"
	fst, _ := m.Lookup(ir.OpFStore)
	units := map[UnitKind]Segment{}
	for _, s := range fst[0].Segments {
		units[s.Unit] = s
	}
	if s := units[FPU]; s.Noncov != 1 || s.Cov != 1 {
		t.Errorf("fstore FPU segment = %+v", s)
	}
	if s := units[FXU]; s.Noncov != 1 {
		t.Errorf("fstore FXU segment = %+v", s)
	}
	// "the integer multiply takes three cycles when the multiplier has a
	// value between -128 and 127, but takes five cycles for general
	// values"
	if m.Latency(ir.OpIMulSmall) != 3 {
		t.Errorf("small imul latency = %d", m.Latency(ir.OpIMulSmall))
	}
	if m.Latency(ir.OpIMul) != 5 {
		t.Errorf("general imul latency = %d", m.Latency(ir.OpIMul))
	}
	if !m.HasFMA {
		t.Error("POWER1 must support FMA")
	}
}

func TestScalar1NoOverlap(t *testing.T) {
	s := NewScalar1()
	if len(s.UnitCounts) != 1 || s.UnitCounts[UNI] != 1 {
		t.Errorf("Scalar1 units: %v", s.UnitCounts)
	}
	for _, op := range ir.AllOps() {
		seq, err := s.Lookup(op)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range seq {
			for _, seg := range a.Segments {
				if seg.Cov != 0 {
					t.Errorf("%s has coverable cost on Scalar1", op)
				}
				if seg.Unit != UNI {
					t.Errorf("%s uses unit %s on Scalar1", op, seg.Unit)
				}
			}
		}
	}
	// Scalar latency equals POWER1 dependent-visible latency.
	p := NewPOWER1()
	for _, op := range []ir.Op{ir.OpFAdd, ir.OpFLoad, ir.OpIMul, ir.OpFDiv} {
		if s.Latency(op) != p.Latency(op) {
			t.Errorf("%s: scalar %d != power %d", op, s.Latency(op), p.Latency(op))
		}
	}
}

func TestSuperScalar2Pipes(t *testing.T) {
	m := NewSuperScalar2()
	if m.UnitCounts[FXU] != 2 || m.UnitCounts[FPU] != 2 {
		t.Errorf("unit counts: %v", m.UnitCounts)
	}
	units := m.Units()
	// 2 FXU + 2 FPU + 1 BRU + 1 CRU = 6 instances, stable order.
	if len(units) != 6 {
		t.Fatalf("units: %v", units)
	}
	if units[0].String() == "" {
		t.Error("empty unit name")
	}
	// Instances of the same kind are adjacent and indexed.
	byKind := map[UnitKind][]int{}
	for _, u := range units {
		byKind[u.Kind] = append(byKind[u.Kind], u.Index)
	}
	for k, idxs := range byKind {
		for i, idx := range idxs {
			if idx != i {
				t.Errorf("%s instance indices: %v", k, idxs)
			}
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	m := ReferencePOWER1()
	delete(m.Table, ir.OpFSqrt)
	if _, err := m.Lookup(ir.OpFSqrt); err == nil {
		t.Error("expected error for unmapped op")
	}
	if err := m.Validate(); err == nil {
		t.Error("Validate should fail with missing mapping")
	}
}

func TestOccupancyVsLatency(t *testing.T) {
	m := NewPOWER1()
	// FP add: occupancy 1 (noncov only), latency 2.
	if m.Occupancy(ir.OpFAdd) != 1 {
		t.Errorf("fadd occupancy = %d", m.Occupancy(ir.OpFAdd))
	}
	// FDiv occupies the pipe for its whole latency.
	if m.Occupancy(ir.OpFDiv) != m.Latency(ir.OpFDiv) {
		t.Error("fdiv should be non-pipelined")
	}
	// FStore occupies two units: occupancy 2, latency 2.
	if m.Occupancy(ir.OpFStore) != 2 {
		t.Errorf("fstore occupancy = %d", m.Occupancy(ir.OpFStore))
	}
}

func TestValidateCatchesBadSegments(t *testing.T) {
	m := ReferencePOWER1()
	m.Table[ir.OpFAdd] = []AtomicOp{{Name: "bad", Segments: []Segment{{Unit: "NOPE", Noncov: 1}}}}
	if err := m.Validate(); err == nil {
		t.Error("unknown unit not caught")
	}
	m = ReferencePOWER1()
	m.Table[ir.OpFAdd] = []AtomicOp{{Name: "bad", Segments: []Segment{{Unit: FPU}}}}
	if err := m.Validate(); err == nil {
		t.Error("zero-cost segment not caught")
	}
	m = ReferencePOWER1()
	m.DispatchWidth = 0
	if err := m.Validate(); err == nil {
		t.Error("zero dispatch width not caught")
	}
}
