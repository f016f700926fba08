// Package machine describes target architectures for the cost model of
// Wang (PLDI 1994, §2.1–2.2): functional units, atomic operations with
// per-unit *noncoverable* and *coverable* cost segments, and the atomic
// operation mapping + cost table that together make the model portable
// ("adding a new architecture … is a matter of defining the atomic
// operation mapping and the atomic operation cost table").
package machine

import (
	"fmt"
	"slices"

	"perfpredict/internal/ir"
)

// UnitKind names a class of functional unit.
type UnitKind string

// The unit kinds of the paper's Figure 3 (IBM POWER): fixed-point unit
// (which also performs loads/stores and address generation), floating
// point unit, branch unit, and condition-register logic unit.
const (
	FXU UnitKind = "FXU"
	FPU UnitKind = "FPU"
	BRU UnitKind = "BranchU"
	CRU UnitKind = "CR-LogicU"
	// UNI is the single unit of a conventional scalar machine.
	UNI UnitKind = "U"
)

// Segment is one unit's share of an atomic operation's cost object
// (Figure 2): at Start cycles after the operation begins, the unit is
// exclusively busy for Noncov cycles, followed by Cov cycles during
// which an independent operation may already use the unit but a
// dependent one must still wait.
type Segment struct {
	Unit   UnitKind
	Start  int
	Noncov int
	Cov    int
}

// End returns the cycle (relative to operation start) at which the
// segment's full effect — including coverable latency — ends.
func (s Segment) End() int { return s.Start + s.Noncov + s.Cov }

// AtomicOp is a costed low-level machine operation.
type AtomicOp struct {
	Name     string
	Segments []Segment
}

// Latency returns the number of cycles after issue until a dependent
// operation may start (the "filter" height of the cost object).
func (a AtomicOp) Latency() int {
	l := 0
	for _, s := range a.Segments {
		if e := s.End(); e > l {
			l = e
		}
	}
	return l
}

// Occupancy returns the total exclusive (noncoverable) cycles over all
// units — the footprint a conventional op-count model would charge.
func (a AtomicOp) Occupancy() int {
	o := 0
	for _, s := range a.Segments {
		o += s.Noncov
	}
	return o
}

// Units returns the distinct unit kinds the op occupies.
func (a AtomicOp) Units() []UnitKind {
	seen := map[UnitKind]bool{}
	var out []UnitKind
	for _, s := range a.Segments {
		if !seen[s.Unit] {
			seen[s.Unit] = true
			out = append(out, s.Unit)
		}
	}
	return out
}

// Machine is an architecture description. The cost model, the
// instruction translation module and the reference pipeline simulator
// all read the same table, but use it independently.
type Machine struct {
	Name string
	// UnitCounts gives the number of identical pipes of each kind
	// ("for architectures with multiple operation pipes, more bins can
	// be added").
	UnitCounts map[UnitKind]int
	// DispatchWidth bounds how many operations may begin per cycle.
	DispatchWidth int
	// Table is the atomic operation mapping: one basic operation may
	// expand to several atomic operations (executed in sequence).
	Table map[ir.Op][]AtomicOp
	// HasFMA reports whether the architecture supports fused
	// multiply-add; the specialization mapping only emits OpFMA when
	// set (§2.2.1: "they are mapped to low level atomic operations if
	// the architecture supports them").
	HasFMA bool
	// LoadsPerStore is meant as the register-pressure heuristic
	// constant K of §2.2.1 (the translation module "forces a store
	// after certain number of loads"). It is parsed, validated and
	// fingerprinted, but no pricing reads it yet: the heuristic is
	// driven by lower.Options.RegisterPressure alone, which pricing
	// leaves at zero (off).
	LoadsPerStore int
	// BranchCost is the estimated uncovered branch cost c_br used by
	// cost aggregation when the branch shape test says the branch is
	// not hidden.
	BranchCost int
	// Memory is the declared cache/TLB hierarchy, or nil when the
	// machine prices every load as an L1 hit. When set, aggregation
	// folds the symbolic §2.3 miss cost into each top-level nest.
	Memory *MemoryHierarchy

	// c is the compiled form fixed at construction (see Compiled); nil
	// for a machine assembled as a struct literal.
	c *Compiled
}

// Units returns the unit instances of the machine in a stable order,
// e.g. FXU#0, FXU#1, FPU#0…
func (m *Machine) Units() []UnitInstance {
	if m.c != nil {
		return append([]UnitInstance(nil), m.c.units...)
	}
	return unitsOf(m)
}

// unitsOf enumerates m's unit instances from its fields.
func unitsOf(m *Machine) []UnitInstance {
	kinds := make([]UnitKind, 0, len(m.UnitCounts))
	for k := range m.UnitCounts {
		kinds = append(kinds, k)
	}
	slices.Sort(kinds)
	counts := make([]int, len(kinds))
	for i, k := range kinds {
		counts[i] = m.UnitCounts[k]
	}
	return instances(kinds, counts)
}

// instances lists counts[k] pipes of each kinds[k], in order; nil when
// there are none.
func instances(kinds []UnitKind, counts []int) []UnitInstance {
	n := 0
	for _, c := range counts {
		n += max(c, 0)
	}
	if n == 0 {
		return nil
	}
	out := make([]UnitInstance, 0, n)
	for k, kind := range kinds {
		for i := 0; i < counts[k]; i++ {
			out = append(out, UnitInstance{kind, i})
		}
	}
	return out
}

// UnitInstance is one physical pipe.
type UnitInstance struct {
	Kind  UnitKind
	Index int
}

func (u UnitInstance) String() string { return fmt.Sprintf("%s#%d", u.Kind, u.Index) }

// Lookup returns the atomic expansion of a basic operation. A sealed
// machine returns a copy, so no caller can edit its compiled table.
func (m *Machine) Lookup(op ir.Op) ([]AtomicOp, error) {
	seq, err := m.desc().lookup(op)
	if err != nil || m.c == nil {
		return seq, err
	}
	return cloneSeq(seq), nil
}

// lookup returns m's own table entry for op.
func (m *Machine) lookup(op ir.Op) ([]AtomicOp, error) {
	seq, ok := m.Table[op]
	if !ok {
		return nil, fmt.Errorf("machine %s: no atomic mapping for %s", m.Name, op)
	}
	return seq, nil
}

// Latency returns the total dependent-visible latency of a basic
// operation (sum over its atomic expansion, which executes serially).
func (m *Machine) Latency(op ir.Op) int {
	seq, err := m.desc().lookup(op)
	if err != nil {
		return 1
	}
	l := 0
	for _, a := range seq {
		l += a.Latency()
	}
	return l
}

// Occupancy returns the total exclusive unit cycles of a basic op.
func (m *Machine) Occupancy(op ir.Op) int {
	seq, err := m.desc().lookup(op)
	if err != nil {
		return 1
	}
	o := 0
	for _, a := range seq {
		o += a.Occupancy()
	}
	return o
}

// Validate checks internal consistency: every mapped op references only
// units the machine has, with sane segment values, and every basic
// operation has a mapping.
func (m *Machine) Validate() error {
	m = m.desc()
	if m.DispatchWidth <= 0 {
		return fmt.Errorf("machine %s: dispatch width %d", m.Name, m.DispatchWidth)
	}
	if len(m.UnitCounts) == 0 {
		return fmt.Errorf("machine %s: no units", m.Name)
	}
	for k, c := range m.UnitCounts {
		if c <= 0 {
			return fmt.Errorf("machine %s: unit %s count %d", m.Name, k, c)
		}
	}
	if m.Memory != nil {
		if err := SpecOfHierarchy(m.Memory).Validate(m.Name); err != nil {
			return err
		}
	}
	for _, op := range ir.AllOps() {
		seq, ok := m.Table[op]
		if !ok {
			return fmt.Errorf("machine %s: missing mapping for %s", m.Name, op)
		}
		if len(seq) == 0 {
			return fmt.Errorf("machine %s: %s maps to no atomic operations", m.Name, op)
		}
		for _, a := range seq {
			if len(a.Segments) == 0 {
				return fmt.Errorf("machine %s: %s/%s occupies no units", m.Name, op, a.Name)
			}
			perKind := map[UnitKind]int{}
			for i, s := range a.Segments {
				if _, ok := m.UnitCounts[s.Unit]; !ok {
					return fmt.Errorf("machine %s: %s references unknown unit %s", m.Name, op, s.Unit)
				}
				if s.Start < 0 {
					return fmt.Errorf("machine %s: %s has negative start in segment %+v", m.Name, op, s)
				}
				if s.Noncov < 0 || s.Cov < 0 || s.Noncov+s.Cov == 0 {
					return fmt.Errorf("machine %s: %s has bad segment %+v", m.Name, op, s)
				}
				// Exclusive-busy intervals of one atomic op must not
				// overlap on a unit: the op cannot occupy the same pipe
				// twice in the same cycle.
				for _, prev := range a.Segments[:i] {
					if prev.Unit == s.Unit &&
						s.Start < prev.Start+prev.Noncov && prev.Start < s.Start+s.Noncov {
						return fmt.Errorf("machine %s: %s/%s has overlapping segments on %s", m.Name, op, a.Name, s.Unit)
					}
				}
				// Each segment of one atomic operation occupies its own
				// pipe; demanding more pipes of a kind than exist makes
				// the operation unplaceable.
				perKind[s.Unit]++
				if perKind[s.Unit] > m.UnitCounts[s.Unit] {
					return fmt.Errorf("machine %s: %s/%s needs %d pipes of %s, machine has %d",
						m.Name, op, a.Name, perKind[s.Unit], s.Unit, m.UnitCounts[s.Unit])
				}
			}
		}
	}
	return nil
}
