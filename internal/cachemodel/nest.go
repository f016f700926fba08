package cachemodel

import (
	"fmt"

	"perfpredict/internal/machine"
	"perfpredict/internal/sem"
	"perfpredict/internal/source"
	"perfpredict/internal/symexpr"
)

// NestLoop describes one level of a loop nest, outermost first, with
// symbolic bounds — the form the aggregation layer prices loops in.
// Bounds may reference outer loop variables (triangular nests).
type NestLoop struct {
	Var    string
	Lb, Ub symexpr.Poly
	Step   int
}

// NestLines returns the symbolic distinct-line count of the nest for a
// given line and element size: the interference-free §2.3 count as a
// polynomial in the program unknowns. Per reference group the loops
// are folded innermost→outermost:
//
//   - a loop striding the group (non-unit or non-leading subscript)
//     touches a fresh line each iteration: sum over the loop range;
//   - a loop walking the leading dimension with unit coefficient gets
//     spatial reuse: sum over the range, scaled by step/elemsPerLine;
//   - an absent loop provides temporal reuse: the count is unchanged,
//     unless inner bounds referenced the variable (triangular), in
//     which case the variable is bounded by its upper limit.
//
// Summing rather than multiplying by trip counts makes triangular
// bounds exact instead of rectangularized.
func NestLines(tbl *sem.Table, loops []NestLoop, body []source.Stmt, lineBytes, elemBytes int64) (symexpr.Poly, error) {
	if elemBytes <= 0 {
		elemBytes = 8
	}
	elemsPerLine := lineBytes / elemBytes
	if elemsPerLine < 1 {
		elemsPerLine = 1
	}
	concrete := make([]Loop, len(loops))
	for i, l := range loops {
		concrete[i] = Loop{Var: l.Var, Trips: 1}
	}
	groups, err := groupRefs(tbl, concrete, body)
	if err != nil {
		return symexpr.Poly{}, err
	}
	total := symexpr.Zero()
	for _, g := range groups {
		lines := symexpr.Const(1)
		for i := len(loops) - 1; i >= 0; i-- {
			l := loops[i]
			v := symexpr.Var(l.Var)
			step := l.Step
			if step <= 0 {
				step = 1
			}
			switch g.varRole(l.Var) {
			case roleStrided:
				sum, _, err := symexpr.SumOverStep(lines, v, l.Lb, l.Ub, step)
				if err != nil {
					return symexpr.Poly{}, fmt.Errorf("cachemodel: nest lines for %s: %w", g.array, err)
				}
				lines = sum
			case roleContiguous:
				sum, _, err := symexpr.SumOverStep(lines, v, l.Lb, l.Ub, step)
				if err != nil {
					return symexpr.Poly{}, fmt.Errorf("cachemodel: nest lines for %s: %w", g.array, err)
				}
				frac := float64(step) / float64(elemsPerLine)
				if frac > 1 {
					frac = 1 // striding past whole lines: one line per iteration
				}
				lines = sum.Scale(frac)
			case roleAbsent:
				if lines.Degree(v) > 0 {
					// Inner bounds referenced this loop's variable; bound
					// the count by the variable's final value.
					sub, err := lines.Substitute(v, l.Ub)
					if err != nil {
						return symexpr.Poly{}, fmt.Errorf("cachemodel: nest lines for %s: %w", g.array, err)
					}
					lines = sub
				}
			}
		}
		total = total.Add(lines)
	}
	return total, nil
}

// NestMemoryCycles prices a loop nest's memory traffic against a
// declared hierarchy: for each cache level, the distinct lines of that
// level's geometry times its miss penalty, plus the page-granular TLB
// term — all symbolic in the loop bounds. A nil hierarchy, or one
// whose penalties are all zero, yields the zero polynomial, keeping
// memory-less predictions byte-identical.
func NestMemoryCycles(tbl *sem.Table, loops []NestLoop, body []source.Stmt, h *machine.MemoryHierarchy) (symexpr.Poly, error) {
	if h == nil {
		return symexpr.Zero(), nil
	}
	elem := int64(h.ElemBytes)
	total := symexpr.Zero()
	for _, l := range h.Levels {
		if l.MissPenalty == 0 {
			continue
		}
		lines, err := NestLines(tbl, loops, body, l.LineBytes, elem)
		if err != nil {
			return symexpr.Poly{}, err
		}
		total = total.Add(lines.Scale(float64(l.MissPenalty)))
	}
	if t := h.TLB; t != nil && t.MissPenalty != 0 {
		pages, err := NestLines(tbl, loops, body, t.PageBytes, elem)
		if err != nil {
			return symexpr.Poly{}, err
		}
		total = total.Add(pages.Scale(float64(t.MissPenalty)))
	}
	return total, nil
}

// ConfigFromHierarchy derives the concrete estimator/simulator Config
// from a declared hierarchy: the first (nearest) cache level plus the
// TLB. This replaces hand-maintained default geometry — specs are the
// source of truth.
func ConfigFromHierarchy(h *machine.MemoryHierarchy) Config {
	if h == nil || len(h.Levels) == 0 {
		return Config{ElemBytes: 8}
	}
	l := h.Levels[0]
	cfg := Config{
		SizeBytes:   l.SizeBytes,
		LineBytes:   l.LineBytes,
		ElemBytes:   int64(h.ElemBytes),
		MissPenalty: l.MissPenalty,
	}
	if cfg.ElemBytes <= 0 {
		cfg.ElemBytes = 8
	}
	if t := h.TLB; t != nil {
		cfg.TLBPageBytes = t.PageBytes
		cfg.TLBEntries = t.Entries
		cfg.TLBPenalty = t.MissPenalty
	}
	return cfg
}
