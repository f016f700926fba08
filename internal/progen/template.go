package progen

import (
	"math/rand"
	"sort"

	"perfpredict/internal/machine"
)

// maxCells bounds a generated template's lattice size. The generator
// keeps a running product and stops adding dimensions when the next
// one would exceed it.
const maxCells = 16

// GenTemplate generates a machine template that is valid by
// construction — and whose every lattice cell is a valid machine.
// The base comes from GenSpec, whose atomic operations occupy at most
// one pipe per unit kind, so pipe ranges may reach down to 1 without
// producing an unplaceable cell; op alternatives only stretch a
// segment's covered duration, which no validator rule bounds above.
// At least one dimension is always free (a size-1 lattice is legal
// but exercises nothing).
func GenTemplate(r *rand.Rand) *machine.SpecTemplate {
	base := GenSpec(r)
	tpl := &machine.SpecTemplate{Base: base}
	cells := 1
	fits := func(n int) bool { return cells*n <= maxCells }

	// Dispatch range.
	if r.Intn(2) == 0 {
		n := between(r, 2, 3)
		if fits(n) {
			tpl.Dispatch = &machine.IntRange{Min: base.DispatchWidth, Max: base.DispatchWidth + n - 1}
			cells *= n
		}
	}

	// Pipe ranges over existing units (deterministic order).
	units := make([]string, 0, len(base.Units))
	for u := range base.Units {
		units = append(units, u)
	}
	sort.Strings(units)
	r.Shuffle(len(units), func(i, j int) { units[i], units[j] = units[j], units[i] })
	for _, u := range units[:between(r, 1, min(2, len(units)))] {
		n := between(r, 2, 3)
		if !fits(n) {
			continue
		}
		tpl.Pipes = ensure(tpl.Pipes)
		tpl.Pipes[u] = machine.IntRange{Min: 1, Max: n}
		cells *= n
	}

	// Op alternatives: the base expansion plus a slower variant with
	// one more covered cycle on its first segment — same units, same
	// pipe demands, so every cell stays valid.
	if r.Intn(3) == 0 {
		ops := make([]string, 0, len(base.Ops))
		for op := range base.Ops {
			ops = append(ops, op)
		}
		sort.Strings(ops)
		op := ops[r.Intn(len(ops))]
		if fits(2) {
			slower := cloneAtomicOps(base.Ops[op])
			slower[0].Segments[0].Cov++
			tpl.Ops = map[string][][]machine.AtomicOpSpec{op: {base.Ops[op], slower}}
			cells *= 2
		}
	}

	// Guarantee at least one free dimension.
	if cells == 1 {
		tpl.Dispatch = &machine.IntRange{Min: base.DispatchWidth, Max: base.DispatchWidth + 1}
	}

	// Occasionally declare a budget with mixed weights (including the
	// explicit-zero exclusion case).
	if r.Intn(3) == 0 {
		weights := []float64{0, 0.5, 1, 2}
		w := weights[r.Intn(len(weights))]
		dw := weights[r.Intn(len(weights))]
		tpl.Budget = &machine.BudgetSpec{
			DefaultPipeWeight: &w,
			DispatchWeight:    &dw,
		}
		if len(units) > 0 && r.Intn(2) == 0 {
			tpl.Budget.PipeWeights = map[string]float64{units[0]: weights[r.Intn(len(weights))]}
		}
	}
	return tpl
}

func ensure(m map[string]machine.IntRange) map[string]machine.IntRange {
	if m == nil {
		return map[string]machine.IntRange{}
	}
	return m
}

func cloneAtomicOps(seq []machine.AtomicOpSpec) []machine.AtomicOpSpec {
	out := make([]machine.AtomicOpSpec, len(seq))
	for i, a := range seq {
		segs := make([]machine.SegmentSpec, len(a.Segments))
		copy(segs, a.Segments)
		out[i] = machine.AtomicOpSpec{Name: a.Name, Segments: segs}
	}
	return out
}
