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
// "no placement found" error a map-based lookup would produce.
//
// The table has two halves. The op half (flattenOps) depends on the
// atomic operation mapping and on the kind indices; the pipe half
// (pipesOf) on the unit instances. Kind indices follow the pipes'
// kinds in Units order, then kinds only segments name, so a compiled
// template (see Lattice), whose cells share one unit-kind set, shares
// one op half among all cells that map every op alike.
func buildCostTable(m *Machine, inst []UnitInstance) CostTable {
	var ct CostTable
	kindIdx := make(map[UnitKind]int32, 4)
	kindOf := func(k UnitKind) int32 {
		ki, ok := kindIdx[k]
		if !ok {
			ki = int32(len(ct.Kinds))
			kindIdx[k] = ki
			ct.Kinds = append(ct.Kinds, k)
		}
		return ki
	}
	for _, u := range inst {
		kindOf(u.Kind)
	}
	ct.opIdx, ct.costs = flattenOps(m.Table, kindOf)
	ct.KindPipes, ct.PipeKind = pipesOf(inst, len(ct.Kinds))
	return ct
}

// flattenOps builds the op half of a cost table: the op → costs index
// and the costs, every atom and segment a window into one shared
// array. kindOf gives a unit kind's dense index. Ops are visited in
// ascending order, so new kinds are numbered independently of map
// iteration.
func flattenOps(table map[ir.Op][]AtomicOp, kindOf func(UnitKind) int32) ([]int32, []OpCosts) {
	ops := make([]ir.Op, 0, len(table))
	natoms, nsegs := 0, 0
	for op, seq := range table {
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
	var opIdx []int32
	if len(ops) > 0 {
		opIdx = make([]int32, ops[len(ops)-1]+1)
	}
	for i := range opIdx {
		opIdx[i] = -1
	}
	costs := make([]OpCosts, len(ops))
	atoms := make([]Atom, 0, natoms)
	segs := make([]Seg, 0, nsegs)
	for i, op := range ops {
		a0 := len(atoms)
		for _, a := range table[op] {
			s0 := len(segs)
			for _, sg := range a.Segments {
				segs = append(segs, Seg{Kind: kindOf(sg.Unit), Start: int32(sg.Start), Noncov: int32(sg.Noncov), End: int32(sg.End())})
			}
			atoms = append(atoms, Atom{Segs: segs[s0:len(segs):len(segs)], Lat: int32(a.Latency()), Name: a.Name})
		}
		costs[i] = OpCosts{Atoms: atoms[a0:len(atoms):len(atoms)]}
		opIdx[op] = int32(i)
	}
	return opIdx, costs
}

// pipesOf builds the pipe half of a cost table for nkinds kinds:
// KindPipes and PipeKind. inst lists its pipes grouped by kind, the
// groups numbered from kind index 0 in order (unitsOf's order); kinds
// past the last group get no pipes.
func pipesOf(inst []UnitInstance, nkinds int) ([][]int32, []int32) {
	n := len(inst)
	buf := make([]int32, 2*n)
	pipeKind, pipes := buf[:n:n], buf[n:]
	kindPipes := make([][]int32, nkinds)
	k, first := int32(-1), 0
	for i, u := range inst {
		if i == 0 || u.Kind != inst[i-1].Kind {
			if k >= 0 {
				kindPipes[k] = pipes[first:i:i]
			}
			k, first = k+1, i
		}
		pipeKind[i] = k
		pipes[i] = int32(i)
	}
	if k >= 0 {
		kindPipes[k] = pipes[first:n:n]
	}
	return kindPipes, pipeKind
}
