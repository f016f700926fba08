package invariants

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"perfpredict/internal/aggregate"
	"perfpredict/internal/explore"
	"perfpredict/internal/progen"
)

// CheckExplore runs the design-space-exploration invariant suite for
// one seed: a generated machine template is expanded, swept over
// generated kernels, and the resulting frontier is audited against
// the dominance definition.
//
//   - expand-valid: every cell of the expanded lattice passes
//     Spec.Validate (Expand promises this; asserted independently).
//   - expand-deterministic: two expansions of the same template are
//     identical, cell for cell.
//   - expand-duplicate-free: every cell has a distinct machine content
//     fingerprint.
//   - lattice-equals-expand: every cell of the compiled lattice equals
//     the full build of the expanded spec (LatticeMismatches).
//   - explore-deterministic: Workers=1 and Workers=4 sweeps (the
//     latter on a warm shared segment cache) marshal byte-identically.
//   - front-nondominated: no front member dominates another.
//   - pruned-witnessed: every pruned config's recorded witness is on
//     the front and actually dominates it under explore.Dominates —
//     dominance on the measured (budget, cost) vector only, which is
//     exactly why pruning survives Graham's anomaly: a structurally
//     bigger machine that schedules slower is simply not dominant.
//   - frontier-partition: front and pruned together are the whole
//     lattice, each index exactly once.
//   - best-brute-force: Result.Best equals an independent linear scan
//     over all cells.
func CheckExplore(seed int64) []Violation {
	var vs []Violation
	fail := func(inv, format string, a ...any) {
		vs = append(vs, Violation{Invariant: inv, Seed: seed, Detail: fmt.Sprintf(format, a...)})
	}
	r := progen.NewRand(seed)
	tpl := progen.GenTemplate(r)
	if err := tpl.Validate(); err != nil {
		fail("gen-template-valid", "generated template rejected: %v", err)
		return vs
	}
	for _, msg := range LatticeMismatches(tpl) {
		fail("lattice-equals-expand", "%s", msg)
	}

	exp1, err := tpl.Expand()
	if err != nil {
		fail("expand-valid", "Expand failed on a valid template: %v", err)
		return vs
	}
	fps := make(map[string]string, len(exp1))
	for i, e := range exp1 {
		if err := e.Spec.Validate(); err != nil {
			fail("expand-valid", "cell %d (%s) invalid: %v", i, e.Spec.Name, err)
		}
		m, err := e.Spec.Machine()
		if err != nil {
			fail("expand-valid", "cell %d (%s) failed to build: %v", i, e.Spec.Name, err)
			continue
		}
		fp := m.Fingerprint().String()
		if prev, dup := fps[fp]; dup {
			fail("expand-duplicate-free", "cells %s and %s share fingerprint %s", prev, e.Spec.Name, fp)
		}
		fps[fp] = e.Spec.Name
	}
	exp2, err := tpl.Expand()
	if err != nil || len(exp1) != len(exp2) {
		fail("expand-deterministic", "re-expansion: %d cells vs %d (err %v)", len(exp1), len(exp2), err)
	} else {
		for i := range exp1 {
			e1, err1 := exp1[i].Spec.Encode()
			e2, err2 := exp2[i].Spec.Encode()
			if err1 != nil || err2 != nil || !bytes.Equal(e1, e2) {
				fail("expand-deterministic", "cell %d differs across expansions (errs %v, %v)", i, err1, err2)
				break
			}
		}
	}

	kernels := []explore.Kernel{
		{Name: "k0", Source: progen.GenProgram(r, progen.ProgramConfig{AllowIf: true})},
		{Name: "k1", Source: progen.GenProgram(r, progen.ProgramConfig{})},
	}
	// Half the seeds sweep toward a cost target (picked blind — it may
	// be unmeetable, which must yield Best == nil, not an error).
	var target float64
	if r.Intn(2) == 0 {
		target = float64(100 + r.Intn(99900))
	}
	res, err := explore.Run(context.Background(), tpl, kernels,
		explore.Options{Workers: 1, Target: target})
	if err != nil {
		fail("explore-total", "sweep failed on valid inputs: %v", err)
		return vs
	}
	seg := aggregate.NewSegCache()
	for pass := 0; pass < 2; pass++ { // cold then warm shared cache
		resN, err := explore.Run(context.Background(), tpl, kernels,
			explore.Options{Workers: 4, Target: target, SegCache: seg})
		if err != nil {
			fail("explore-deterministic", "workers=4 pass %d failed: %v", pass, err)
			return vs
		}
		b1, err1 := json.Marshal(res)
		bN, errN := json.Marshal(resN)
		if err1 != nil || errN != nil || !bytes.Equal(b1, bN) {
			fail("explore-deterministic",
				"workers=1 and workers=4 (pass %d) differ (errs %v, %v)\nw1: %s\nwN: %s",
				pass, err1, errN, b1, bN)
			return vs
		}
	}

	vs = append(vs, auditFrontier(seed, res, len(exp1), target)...)
	return vs
}

// auditFrontier checks a sweep result against the dominance
// definition, using only what the result itself carries.
func auditFrontier(seed int64, res *explore.Result, lattice int, target float64) []Violation {
	var vs []Violation
	fail := func(inv, format string, a ...any) {
		vs = append(vs, Violation{Invariant: inv, Seed: seed, Detail: fmt.Sprintf(format, a...)})
	}

	for i := range res.Front {
		for j := range res.Front {
			if i != j && explore.Dominates(&res.Front[i], &res.Front[j]) {
				fail("front-nondominated", "front member %s dominates front member %s",
					res.Front[i].Name, res.Front[j].Name)
			}
		}
	}

	frontByIndex := map[int]*explore.Cell{}
	for i := range res.Front {
		frontByIndex[res.Front[i].Index] = &res.Front[i]
	}
	for _, p := range res.Pruned {
		w, ok := frontByIndex[p.DominatedBy]
		if !ok {
			fail("pruned-witnessed", "%s: witness index %d is not on the front", p.Name, p.DominatedBy)
			continue
		}
		shadow := explore.Cell{Budget: p.Budget, Costs: p.Costs}
		if !explore.Dominates(w, &shadow) {
			fail("pruned-witnessed", "%s: recorded witness %s does not dominate it", p.Name, w.Name)
		}
	}

	seen := map[int]bool{}
	for i := range res.Front {
		seen[res.Front[i].Index] = true
	}
	for _, p := range res.Pruned {
		if seen[p.Index] {
			fail("frontier-partition", "index %d appears twice", p.Index)
		}
		seen[p.Index] = true
	}
	if res.Cells != lattice || len(seen) != lattice {
		fail("frontier-partition", "lattice %d cells, result covers %d (Cells=%d)",
			lattice, len(seen), res.Cells)
	}

	// Brute-force Best from the full (front ∪ pruned) cell set.
	type lite struct {
		index  int
		budget float64
		total  float64
	}
	all := make([]lite, 0, lattice)
	for _, c := range res.Front {
		all = append(all, lite{c.Index, c.Budget, c.Total})
	}
	for _, p := range res.Pruned {
		all = append(all, lite{p.Index, p.Budget, p.Total})
	}
	var want *lite
	for i := range all {
		c := &all[i]
		switch {
		case target > 0:
			if c.total > target {
				continue
			}
			if want == nil || c.budget < want.budget ||
				(c.budget == want.budget && c.total < want.total) ||
				(c.budget == want.budget && c.total == want.total && c.index < want.index) {
				want = c
			}
		default:
			if want == nil || c.total < want.total ||
				(c.total == want.total && c.budget < want.budget) ||
				(c.total == want.total && c.budget == want.budget && c.index < want.index) {
				want = c
			}
		}
	}
	switch {
	case want == nil && res.Best != nil:
		fail("best-brute-force", "no cell meets target %.0f but Best is %s", target, res.Best.Name)
	case want != nil && res.Best == nil:
		fail("best-brute-force", "cell %d meets target %.0f but Best is nil", want.index, target)
	case want != nil && res.Best.Index != want.index:
		fail("best-brute-force", "Best is cell %d, brute force says %d", res.Best.Index, want.index)
	}
	return vs
}
