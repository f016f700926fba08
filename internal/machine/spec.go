package machine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"sort"

	"perfpredict/internal/ir"
)

// Spec is a machine description as data: the serializable form of a
// Machine, realizing the paper's portability claim that retargeting
// "is a matter of defining the atomic operation mapping and the atomic
// operation cost table" (§2.2). A spec is a plain JSON document — unit
// inventory, dispatch width, feature flags, and the full basic-op →
// atomic-op cost table — that is validated before it ever reaches the
// estimators, so a malformed table fails loudly at load time instead
// of deep inside tetris placement.
//
// The three builtin targets are shipped as //go:embed-ded spec files
// (see builtins.go); custom targets load from files via ParseSpec and
// register alongside them (see Registry).
type Spec struct {
	// Name identifies the target. Cache keys do NOT rely on it being
	// unique — they key on Machine.Fingerprint, i.e. on content.
	Name string `json:"name"`
	// DispatchWidth bounds operations begun per cycle.
	DispatchWidth int `json:"dispatch_width"`
	// HasFMA gates fused multiply-add emission in the lowering layer.
	HasFMA bool `json:"has_fma,omitempty"`
	// LoadsPerStore is the register-pressure heuristic constant K
	// (§2.2.1); zero disables it.
	LoadsPerStore int `json:"loads_per_store,omitempty"`
	// BranchCost is the uncovered branch cost c_br.
	BranchCost int `json:"branch_cost,omitempty"`
	// Units maps unit-kind names to pipe counts ("more bins").
	Units map[string]int `json:"units"`
	// Ops is the atomic operation mapping: basic-op mnemonic (ir.Op
	// spelling) to its serially executed atomic expansion.
	Ops map[string][]AtomicOpSpec `json:"ops"`
	// Memory, when present, declares the cache/TLB hierarchy and makes
	// the §2.3 memory term part of every prediction. Absent means all
	// loads are priced as L1 hits (the historical behavior).
	Memory *MemorySpec `json:"memory,omitempty"`
}

// AtomicOpSpec is one costed atomic operation of an expansion.
type AtomicOpSpec struct {
	Name     string        `json:"name"`
	Segments []SegmentSpec `json:"segments"`
}

// SegmentSpec is one unit's share of an atomic operation's cost object
// (Figure 2). Zero-valued fields are omitted from the encoding.
type SegmentSpec struct {
	Unit   string `json:"unit"`
	Start  int    `json:"start,omitempty"`
	Noncov int    `json:"noncov,omitempty"`
	Cov    int    `json:"cov,omitempty"`
}

// ParseSpec decodes a machine spec from its JSON form. Unknown fields
// are rejected — a typoed cost key is a description bug, not data to
// ignore. The result is not yet validated; call Validate (or Machine,
// which validates) before use.
func ParseSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("machine spec: %w", err)
	}
	// A second document in the stream is a malformed file, not data.
	if dec.More() {
		return nil, fmt.Errorf("machine spec: trailing data after document")
	}
	return &s, nil
}

// Encode renders the spec in canonical form: two-space-indented JSON
// with object keys sorted (encoding/json sorts map keys) and a
// trailing newline. Encode∘ParseSpec∘Encode is the identity on its
// output, which is what makes specs diffable, embeddable artifacts.
func (s *Spec) Encode() ([]byte, error) {
	out, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("machine spec %s: %w", s.Name, err)
	}
	return append(out, '\n'), nil
}

// clone returns a deep copy of s: no map, slice or pointer is shared
// with the original, and nil and empty collections stay as they were,
// so the copy encodes exactly like s.
func (s *Spec) clone() *Spec {
	c := *s
	c.Units = maps.Clone(s.Units)
	if s.Ops != nil {
		c.Ops = make(map[string][]AtomicOpSpec, len(s.Ops))
		for op, seq := range s.Ops {
			c.Ops[op] = cloneAtomicOps(seq)
		}
	}
	if s.Memory != nil {
		ms := *s.Memory
		ms.Levels = slices.Clone(s.Memory.Levels)
		if s.Memory.TLB != nil {
			tlb := *s.Memory.TLB
			ms.TLB = &tlb
		}
		c.Memory = &ms
	}
	return &c
}

// cloneAtomicOps deep-copies an atomic expansion, keeping nil and
// empty slices distinct.
func cloneAtomicOps(seq []AtomicOpSpec) []AtomicOpSpec {
	if seq == nil {
		return nil
	}
	out := make([]AtomicOpSpec, len(seq))
	for i, a := range seq {
		out[i] = AtomicOpSpec{Name: a.Name, Segments: slices.Clone(a.Segments)}
	}
	return out
}

// Validate checks every invariant the estimators depend on:
//
//   - the name is nonempty and the dispatch width positive;
//   - every unit kind has a positive pipe count;
//   - every op mnemonic is a known basic operation, and every basic
//     operation the lowering layer may emit (all of ir.AllOps) has a
//     nonempty atomic expansion;
//   - every atomic operation has a name and at least one segment;
//   - segments reference declared units, have nonnegative start /
//     noncoverable / coverable values, nonzero duration, and the
//     noncoverable (exclusive-busy) intervals of segments on the same
//     unit within one atomic operation do not overlap.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("machine spec: empty name")
	}
	if s.DispatchWidth <= 0 {
		return fmt.Errorf("machine spec %s: dispatch width %d, want > 0", s.Name, s.DispatchWidth)
	}
	if len(s.Units) == 0 {
		return fmt.Errorf("machine spec %s: no units", s.Name)
	}
	for k, c := range s.Units {
		if k == "" {
			return fmt.Errorf("machine spec %s: empty unit kind", s.Name)
		}
		if c <= 0 {
			return fmt.Errorf("machine spec %s: unit %s count %d, want > 0", s.Name, k, c)
		}
	}
	if s.Memory != nil {
		if err := s.Memory.Validate(s.Name); err != nil {
			return err
		}
	}
	for name := range s.Ops {
		if _, ok := ir.ParseOp(name); !ok {
			return fmt.Errorf("machine spec %s: unknown basic operation %q", s.Name, name)
		}
	}
	for _, op := range ir.AllOps() {
		seq, ok := s.Ops[op.String()]
		if !ok {
			return fmt.Errorf("machine spec %s: missing mapping for %s", s.Name, op)
		}
		if len(seq) == 0 {
			return fmt.Errorf("machine spec %s: %s maps to no atomic operations", s.Name, op)
		}
		for _, a := range seq {
			if a.Name == "" {
				return fmt.Errorf("machine spec %s: %s has an unnamed atomic operation", s.Name, op)
			}
			if len(a.Segments) == 0 {
				return fmt.Errorf("machine spec %s: %s/%s occupies no units", s.Name, op, a.Name)
			}
			perKind := map[string]int{}
			for i, seg := range a.Segments {
				if _, ok := s.Units[seg.Unit]; !ok {
					return fmt.Errorf("machine spec %s: %s/%s references unknown unit %q", s.Name, op, a.Name, seg.Unit)
				}
				if seg.Start < 0 {
					return fmt.Errorf("machine spec %s: %s/%s has negative start %d", s.Name, op, a.Name, seg.Start)
				}
				if seg.Noncov < 0 || seg.Cov < 0 {
					return fmt.Errorf("machine spec %s: %s/%s has negative cost (noncov %d, cov %d)", s.Name, op, a.Name, seg.Noncov, seg.Cov)
				}
				if seg.Noncov+seg.Cov == 0 {
					return fmt.Errorf("machine spec %s: %s/%s has a zero-duration segment on %s", s.Name, op, a.Name, seg.Unit)
				}
				for _, prev := range a.Segments[:i] {
					if prev.Unit != seg.Unit {
						continue
					}
					if seg.Start < prev.Start+prev.Noncov && prev.Start < seg.Start+seg.Noncov {
						return fmt.Errorf("machine spec %s: %s/%s has overlapping segments on %s", s.Name, op, a.Name, seg.Unit)
					}
				}
				// Each segment of one atomic operation occupies its own
				// pipe, so an expansion demanding more pipes of a kind
				// than the machine has could never be placed.
				perKind[seg.Unit]++
				if perKind[seg.Unit] > s.Units[seg.Unit] {
					return fmt.Errorf("machine spec %s: %s/%s needs %d pipes of %s, machine has %d",
						s.Name, op, a.Name, perKind[seg.Unit], seg.Unit, s.Units[seg.Unit])
				}
			}
		}
	}
	return nil
}

// Machine validates the spec and builds the runtime Machine it
// describes, sealed: the target is compiled once here (see Compiled),
// so later edits to s or to the returned value's fields change neither
// its fingerprint nor any price. Each call returns a fresh value.
func (s *Spec) Machine() (*Machine, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{
		Name:          s.Name,
		UnitCounts:    make(map[UnitKind]int, len(s.Units)),
		DispatchWidth: s.DispatchWidth,
		HasFMA:        s.HasFMA,
		LoadsPerStore: s.LoadsPerStore,
		BranchCost:    s.BranchCost,
		Table:         make(map[ir.Op][]AtomicOp, len(s.Ops)),
		Memory:        s.Memory.Hierarchy(),
	}
	for k, c := range s.Units {
		m.UnitCounts[UnitKind(k)] = c
	}
	for name, seq := range s.Ops {
		op, _ := ir.ParseOp(name) // Validate vouched for every name
		atomics := make([]AtomicOp, len(seq))
		for i, a := range seq {
			segs := make([]Segment, len(a.Segments))
			for j, seg := range a.Segments {
				segs[j] = Segment{Unit: UnitKind(seg.Unit), Start: seg.Start, Noncov: seg.Noncov, Cov: seg.Cov}
			}
			atomics[i] = AtomicOp{Name: a.Name, Segments: segs}
		}
		m.Table[op] = atomics
	}
	return m.seal(), nil
}

// WithExtraPipe builds a machine identical to m except for one more
// pipe of kind k — the "one-more-pipe" what-if of the explain
// subsystem. The round-trip goes through the spec form, so the result
// is validated and carries a fresh content fingerprint (every cache
// keyed on content stays sound). Adding a pipe can never invalidate a
// spec: the per-kind segment rule only bounds counts from below.
func WithExtraPipe(m *Machine, k UnitKind) (*Machine, error) {
	s := SpecOf(m)
	if s.Units[string(k)] == 0 {
		return nil, fmt.Errorf("machine %s: no unit kind %s to extend", m.Name, k)
	}
	s.Units[string(k)]++
	return s.Machine()
}

// SpecOf is the inverse of Spec.Machine: the serializable description
// of an existing Machine. SpecOf(m).Machine() reproduces m exactly
// (up to map iteration order, which neither fingerprints nor the
// estimators observe), so hand-coded tables can be exported, diffed,
// and re-embedded as data. A sealed machine describes its compiled
// form, whatever its exported fields now hold.
func SpecOf(m *Machine) *Spec {
	m = m.desc()
	s := &Spec{
		Name:          m.Name,
		DispatchWidth: m.DispatchWidth,
		HasFMA:        m.HasFMA,
		LoadsPerStore: m.LoadsPerStore,
		BranchCost:    m.BranchCost,
		Units:         make(map[string]int, len(m.UnitCounts)),
		Ops:           make(map[string][]AtomicOpSpec, len(m.Table)),
		Memory:        SpecOfHierarchy(m.Memory),
	}
	for k, c := range m.UnitCounts {
		s.Units[string(k)] = c
	}
	ops := make([]ir.Op, 0, len(m.Table))
	for op := range m.Table {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].String() < ops[j].String() })
	for _, op := range ops {
		seq := m.Table[op]
		atomics := make([]AtomicOpSpec, len(seq))
		for i, a := range seq {
			segs := make([]SegmentSpec, len(a.Segments))
			for j, seg := range a.Segments {
				segs[j] = SegmentSpec{Unit: string(seg.Unit), Start: seg.Start, Noncov: seg.Noncov, Cov: seg.Cov}
			}
			atomics[i] = AtomicOpSpec{Name: a.Name, Segments: segs}
		}
		s.Ops[op.String()] = atomics
	}
	return s
}
