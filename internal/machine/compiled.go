package machine

import (
	"maps"

	"perfpredict/internal/ir"
	"perfpredict/internal/source"
)

// Compiled is the sealed, compiled form of a machine description: the
// per-target constants every pricing reads (§2.1–2.2), derived once
// from a private deep copy of the description and never written again.
// It carries the content fingerprint, the unit instances, the
// flattened cost table the Tetris placement streams, and the
// scalar fields the lowering and aggregation layers consult.
//
// Spec.Machine — and therefore Lookup, the builtin constructors and
// template-expanded cells — compiles each target once and attaches the
// result; Machine.Compiled returns it. Because the compiled form owns
// its copy, editing the Spec, the template, or any exported field of
// the built Machine afterwards changes neither the fingerprint nor any
// price: a sealed Machine's Fingerprint, Units, Lookup, Latency,
// Occupancy, Validate and SpecOf all read the sealed copy. To derive a
// variant target, edit a Spec (SpecOf(m)) and build it.
//
// A Machine assembled as a struct literal is not sealed: Compiled
// compiles it afresh on every call, so its prices follow its current
// fields. Hot paths therefore expect sealed targets.
//
// A Compiled value is immutable and safe for concurrent use. Slices
// it returns are shared and must be treated as read-only.
type Compiled struct {
	desc  Machine // private deep copy; never written after compile
	fp    source.Fingerprint
	units []UnitInstance
	costs CostTable
}

// compile seals a deep copy of m's description.
func compile(m *Machine) *Compiled {
	c := &Compiled{desc: *m.clone()}
	c.fp = fingerprint(&c.desc)
	c.units = unitsOf(&c.desc)
	c.costs = buildCostTable(&c.desc, c.units)
	return c
}

// seal attaches the compiled form of m's current fields to m.
func (m *Machine) seal() *Machine {
	m.c = compile(m)
	return m
}

// Compiled returns the machine's compiled form: the one fixed at
// construction for a sealed machine, a fresh compilation of the
// current fields otherwise.
func (m *Machine) Compiled() *Compiled {
	if m.c != nil {
		return m.c
	}
	return compile(m)
}

// Sealed returns m when it is sealed, and otherwise a sealed deep copy
// of its current fields, so a caller about to price many blocks on a
// struct-literal machine compiles it once.
func (m *Machine) Sealed() *Machine {
	if m.c != nil {
		return m
	}
	return m.clone().seal()
}

// machine returns a fresh Machine sealed to c, its exported fields a
// deep copy of c's description.
func (c *Compiled) machine() *Machine {
	m := c.desc.clone()
	m.c = c
	return m
}

// desc returns the description every read of m answers from: the
// sealed copy when m is sealed, m itself otherwise.
func (m *Machine) desc() *Machine {
	if m.c != nil {
		return &m.c.desc
	}
	return m
}

// clone returns an unsealed deep copy of m: no map, slice or pointer
// is shared with the original.
func (m *Machine) clone() *Machine {
	c := *m
	c.c = nil
	c.UnitCounts = maps.Clone(m.UnitCounts)
	if m.Table != nil {
		c.Table = make(map[ir.Op][]AtomicOp, len(m.Table))
		for op, seq := range m.Table {
			c.Table[op] = cloneSeq(seq)
		}
	}
	c.Memory = m.Memory.Clone()
	return &c
}

// cloneSeq deep-copies an atomic expansion.
func cloneSeq(seq []AtomicOp) []AtomicOp {
	atoms := make([]AtomicOp, len(seq))
	for i, a := range seq {
		atoms[i] = AtomicOp{Name: a.Name, Segments: append([]Segment(nil), a.Segments...)}
	}
	return atoms
}

// Fingerprint returns the content fingerprint of the compiled
// description (see Machine.Fingerprint).
func (c *Compiled) Fingerprint() source.Fingerprint { return c.fp }

// Name returns the target's name.
func (c *Compiled) Name() string { return c.desc.Name }

// Units returns the unit instances in Machine.Units order (shared).
func (c *Compiled) Units() []UnitInstance { return c.units }

// Costs returns the flattened cost table.
func (c *Compiled) Costs() *CostTable { return &c.costs }

// DispatchWidth returns the number of operations that may begin per
// cycle.
func (c *Compiled) DispatchWidth() int { return c.desc.DispatchWidth }

// HasFMA reports whether the lowering may emit fused multiply-add.
func (c *Compiled) HasFMA() bool { return c.desc.HasFMA }

// BranchCost returns the uncovered branch cost c_br.
func (c *Compiled) BranchCost() int { return c.desc.BranchCost }

// Memory returns the declared memory hierarchy (shared; nil when the
// machine prices every load as an L1 hit).
func (c *Compiled) Memory() *MemoryHierarchy { return c.desc.Memory }

// Lookup returns the atomic expansion of a basic operation (shared).
func (c *Compiled) Lookup(op ir.Op) ([]AtomicOp, error) { return c.desc.lookup(op) }

// Latency returns the dependent-visible latency of a basic operation.
func (c *Compiled) Latency(op ir.Op) int { return c.desc.Latency(op) }
