package progen

import (
	"fmt"
	"math/rand"

	"perfpredict/internal/ir"
	"perfpredict/internal/machine"
)

// Bounds of generated machine descriptions: unit kinds (at least 2),
// pipes per kind, and dispatch width.
const (
	maxKinds = 4
	maxPipes = 3
	maxWidth = 6
)

var kindPool = []string{"ALU", "FPU", "MEM", "BR", "CR", "VEC"}

// GenSpec generates a machine spec that is valid by construction:
// every basic operation has a nonempty expansion, every segment
// references a declared unit, durations are positive, and no atomic
// operation demands more pipes of a kind than the machine has (each
// segment of one atomic operation occupies its own pipe).
func GenSpec(r *rand.Rand) *machine.Spec {
	nKinds := between(r, 2, maxKinds)
	kinds := append([]string(nil), kindPool...)
	r.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	kinds = kinds[:nKinds]
	units := map[string]int{}
	for _, k := range kinds {
		units[k] = between(r, 1, maxPipes)
	}
	s := &machine.Spec{
		Name:          fmt.Sprintf("Fuzz-%08x", r.Uint32()),
		DispatchWidth: between(r, 1, maxWidth),
		HasFMA:        r.Intn(2) == 0,
		Units:         units,
		Ops:           map[string][]machine.AtomicOpSpec{},
	}
	if r.Intn(3) == 0 {
		s.LoadsPerStore = between(r, 2, 5)
	}
	s.BranchCost = between(r, 0, 8)

	genSegment := func(kind string) machine.SegmentSpec {
		seg := machine.SegmentSpec{
			Unit:   kind,
			Start:  between(r, 0, 2),
			Noncov: between(r, 0, 3),
			Cov:    between(r, 0, 3),
		}
		if seg.Noncov+seg.Cov == 0 {
			seg.Noncov = 1
		}
		return seg
	}
	for _, op := range ir.AllOps() {
		nAtomic := 1
		if r.Intn(5) == 0 {
			nAtomic = 2
		}
		var seq []machine.AtomicOpSpec
		for a := 0; a < nAtomic; a++ {
			atom := machine.AtomicOpSpec{Name: fmt.Sprintf("%s.%c", op, 'a'+a)}
			k1 := pick(r, kinds)
			atom.Segments = append(atom.Segments, genSegment(k1))
			if r.Intn(4) == 0 && nKinds > 1 {
				// Second segment on a *different* kind: distinct kinds
				// sidestep both the same-unit overlap rule and the
				// pipes-per-kind budget without narrowing the search.
				k2 := k1
				for k2 == k1 {
					k2 = pick(r, kinds)
				}
				atom.Segments = append(atom.Segments, genSegment(k2))
			}
			seq = append(seq, atom)
		}
		s.Ops[op.String()] = seq
	}
	return s
}

// Mutation is one deliberately broken spec together with the invariant
// it violates; machine.Spec.Validate must reject every one.
type Mutation struct {
	Name string
	Spec *machine.Spec
}

// cloneSpec deep-copies via the canonical encoding (specs round-trip
// by contract).
func cloneSpec(s *machine.Spec) *machine.Spec {
	data, err := s.Encode()
	if err != nil {
		panic("progen: clone encode: " + err.Error())
	}
	c, err := machine.ParseSpec(data)
	if err != nil {
		panic("progen: clone parse: " + err.Error())
	}
	return c
}

// anyUnit returns some declared unit kind (map order independent: the
// lexicographically first, so mutations are deterministic).
func anyUnit(s *machine.Spec) string {
	best := ""
	for k := range s.Units {
		if best == "" || k < best {
			best = k
		}
	}
	return best
}

// InvalidMutations derives, from a valid spec, one broken variant per
// validator rule. The harness asserts Validate rejects each; a
// mutation that slips through means a validation regression.
func InvalidMutations(s *machine.Spec) []Mutation {
	target := ir.OpFAdd.String()
	muts := []struct {
		name  string
		apply func(c *machine.Spec)
	}{
		{"empty-name", func(c *machine.Spec) { c.Name = "" }},
		{"zero-dispatch-width", func(c *machine.Spec) { c.DispatchWidth = 0 }},
		{"negative-dispatch-width", func(c *machine.Spec) { c.DispatchWidth = -2 }},
		{"no-units", func(c *machine.Spec) { c.Units = map[string]int{} }},
		{"zero-pipe-count", func(c *machine.Spec) { c.Units[anyUnit(c)] = 0 }},
		{"empty-unit-kind", func(c *machine.Spec) { c.Units[""] = 1 }},
		{"unknown-basic-op", func(c *machine.Spec) { c.Ops["frobnicate"] = c.Ops[target] }},
		{"missing-basic-op", func(c *machine.Spec) { delete(c.Ops, target) }},
		{"empty-expansion", func(c *machine.Spec) { c.Ops[target] = []machine.AtomicOpSpec{} }},
		{"unnamed-atomic-op", func(c *machine.Spec) { c.Ops[target][0].Name = "" }},
		{"no-segments", func(c *machine.Spec) { c.Ops[target][0].Segments = nil }},
		{"unknown-unit", func(c *machine.Spec) { c.Ops[target][0].Segments[0].Unit = "Imaginary" }},
		{"negative-start", func(c *machine.Spec) { c.Ops[target][0].Segments[0].Start = -1 }},
		{"negative-noncov", func(c *machine.Spec) { c.Ops[target][0].Segments[0].Noncov = -2 }},
		{"zero-duration-segment", func(c *machine.Spec) {
			c.Ops[target][0].Segments[0].Noncov = 0
			c.Ops[target][0].Segments[0].Cov = 0
		}},
		{"overlapping-segments", func(c *machine.Spec) {
			u := anyUnit(c)
			c.Ops[target][0].Segments = []machine.SegmentSpec{
				{Unit: u, Start: 0, Noncov: 2},
				{Unit: u, Start: 1, Noncov: 2},
			}
		}},
		{"oversubscribed-kind", func(c *machine.Spec) {
			// Two non-overlapping segments on a 1-pipe kind: each
			// segment of an atomic op needs its own pipe, so this can
			// never place.
			u := anyUnit(c)
			c.Units[u] = 1
			c.Ops[target][0].Segments = []machine.SegmentSpec{
				{Unit: u, Start: 0, Noncov: 1},
				{Unit: u, Start: 2, Noncov: 1},
			}
		}},
	}
	// Memory-section mutations: attach a minimal valid hierarchy, then
	// break one rule. The base spec carries no memory section, so each
	// of these exercises exactly the named memory validator rule.
	attachMem := func(c *machine.Spec) *machine.MemorySpec {
		c.Memory = &machine.MemorySpec{
			Levels: []machine.CacheLevelSpec{
				{Name: "L1", SizeBytes: 8192, LineBytes: 64, Assoc: 2, MissPenalty: 10},
			},
		}
		return c.Memory
	}
	memMuts := []struct {
		name  string
		apply func(c *machine.Spec)
	}{
		{"memory-no-levels", func(c *machine.Spec) { attachMem(c).Levels = nil }},
		{"memory-unnamed-level", func(c *machine.Spec) { attachMem(c).Levels[0].Name = "" }},
		{"memory-zero-line", func(c *machine.Spec) { attachMem(c).Levels[0].LineBytes = 0 }},
		{"memory-size-not-line-multiple", func(c *machine.Spec) { attachMem(c).Levels[0].SizeBytes = 8190 }},
		{"memory-line-not-elem-multiple", func(c *machine.Spec) {
			m := attachMem(c)
			m.Levels[0].SizeBytes, m.Levels[0].LineBytes = 480, 60
		}},
		{"memory-negative-penalty", func(c *machine.Spec) { attachMem(c).Levels[0].MissPenalty = -1 }},
		{"memory-assoc-nondivisor", func(c *machine.Spec) { attachMem(c).Levels[0].Assoc = 3 }},
		{"memory-shrinking-levels", func(c *machine.Spec) {
			m := attachMem(c)
			m.Levels = append(m.Levels, machine.CacheLevelSpec{
				Name: "L2", SizeBytes: 4096, LineBytes: 64, Assoc: 2, MissPenalty: 40,
			})
		}},
		{"memory-bad-tlb", func(c *machine.Spec) {
			attachMem(c).TLB = &machine.TLBSpec{PageBytes: 0, Entries: 4, Assoc: 2}
		}},
	}
	out := make([]Mutation, 0, len(muts)+len(memMuts))
	for _, m := range muts {
		c := cloneSpec(s)
		m.apply(c)
		out = append(out, Mutation{Name: m.name, Spec: c})
	}
	for _, m := range memMuts {
		c := cloneSpec(s)
		m.apply(c)
		out = append(out, Mutation{Name: m.name, Spec: c})
	}
	return out
}
