package machine

import (
	"sort"

	"perfpredict/internal/ir"
)

// OpCosts is the flattened rendering of one basic operation's atomic
// expansion, executed in order. The table's []AtomicOp → []Segment
// layout would make the placement's fit loop re-hash the unit-kind
// string for every probe; here every segment carries its unit kind as
// a dense index into CostTable.KindPipes, and every slice is a window
// into arrays shared by the whole table.
type OpCosts struct {
	Atoms []Atom
}

// Atom is one atomic operation of an expansion.
type Atom struct {
	Segs []Seg
	Lat  int32  // dependent-visible latency
	Name string // for error messages only
}

// Seg is one cost segment with its unit kind resolved.
type Seg struct {
	Kind   int32 // index into CostTable.KindPipes
	Start  int32
	Noncov int32
	End    int32 // Start + Noncov + Cov
}

// CostTable is the flattened form of one machine's atomic operation
// cost table plus the unit-kind → pipe-index mapping, built
// once per compiled target. ir.Op values are small dense integers, so
// the op → costs lookup is a slice index rather than a map access.
type CostTable struct {
	opIdx []int32 // op → index into costs; -1 (or out of range) if unmapped
	costs []OpCosts
	// Kinds lists the unit kinds by dense kind index.
	Kinds []UnitKind
	// KindPipes maps a kind index to its pipe indices (positions in
	// Units order).
	KindPipes [][]int32
	// PipeKind maps a pipe index to its kind index.
	PipeKind []int32
}

// Lookup returns the cost object of op, or nil if the machine's table
// has no mapping for it.
func (ct *CostTable) Lookup(op ir.Op) *OpCosts {
	if int(op) < len(ct.opIdx) && op >= 0 {
		if ci := ct.opIdx[op]; ci >= 0 {
			return &ct.costs[ci]
		}
	}
	return nil
}

// MaxOp returns the largest opcode the table can map (−1 when empty);
// every op above it is unmapped.
func (ct *CostTable) MaxOp() ir.Op { return ir.Op(len(ct.opIdx) - 1) }

// buildCostTable flattens m's table into a handful of table-wide
// arrays. Unit kinds that appear in cost segments but have no pipes on
// the machine get an empty pipe list, so placement fails with the same
// "no placement found" error a map-based lookup would produce. Ops are
// visited in ascending order so the kind indices do not depend on map
// iteration.
func buildCostTable(m *Machine, inst []UnitInstance) CostTable {
	ops := make([]ir.Op, 0, len(m.Table))
	natoms, nsegs := 0, 0
	for op, seq := range m.Table {
		if op < 0 {
			continue // not addressable by a dense index; never emitted
		}
		ops = append(ops, op)
		natoms += len(seq)
		for _, a := range seq {
			nsegs += len(a.Segments)
		}
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	var ct CostTable
	if len(ops) > 0 {
		ct.opIdx = make([]int32, ops[len(ops)-1]+1)
	}
	for i := range ct.opIdx {
		ct.opIdx[i] = -1
	}
	kindIdx := make(map[UnitKind]int32, 4)
	kindOf := func(k UnitKind) int32 {
		ki, ok := kindIdx[k]
		if !ok {
			ki = int32(len(ct.Kinds))
			kindIdx[k] = ki
			ct.Kinds = append(ct.Kinds, k)
			ct.KindPipes = append(ct.KindPipes, nil)
		}
		return ki
	}
	ct.PipeKind = make([]int32, len(inst))
	for i, u := range inst {
		ki := kindOf(u.Kind)
		ct.KindPipes[ki] = append(ct.KindPipes[ki], int32(i))
		ct.PipeKind[i] = ki
	}
	ct.costs = make([]OpCosts, len(ops))
	atoms := make([]Atom, 0, natoms)
	segs := make([]Seg, 0, nsegs)
	for i, op := range ops {
		a0 := len(atoms)
		for _, a := range m.Table[op] {
			s0 := len(segs)
			for _, sg := range a.Segments {
				segs = append(segs, Seg{Kind: kindOf(sg.Unit), Start: int32(sg.Start), Noncov: int32(sg.Noncov), End: int32(sg.End())})
			}
			atoms = append(atoms, Atom{Segs: segs[s0:len(segs):len(segs)], Lat: int32(a.Latency()), Name: a.Name})
		}
		ct.costs[i] = OpCosts{Atoms: atoms[a0:len(atoms):len(atoms)]}
		ct.opIdx[op] = int32(i)
	}
	return ct
}
