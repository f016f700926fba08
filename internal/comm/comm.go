// Package comm implements the communication cost model for
// distributed-memory targets sketched in §2 of Wang (PLDI 1994) and
// inherited from Wang–Houstis (1990) / Balasundaram et al. (1991):
// message-passing statements implied by HPF data distributions are
// counted statically and priced with a startup + per-element model,
// producing performance expressions symbolic in the problem size and
// the processor count. An exact enumerator provides the ground truth
// the model is validated against.
//
// The model assumes the owner-computes rule: the processor owning the
// left-hand-side element executes the assignment, fetching any remote
// right-hand-side operands.
package comm

import (
	"fmt"

	"perfpredict/internal/sem"
	"perfpredict/internal/source"
	"perfpredict/internal/symexpr"
)

// Model prices messages: Cost = Alpha·msgs + Beta·elems (cycles).
type Model struct {
	Alpha float64 // per-message startup
	Beta  float64 // per-element transfer
}

// DefaultModel uses early-1990s MPP constants (SP1-class): ≈500-cycle
// startup, ≈4 cycles per 8-byte element.
func DefaultModel() Model { return Model{Alpha: 500, Beta: 4} }

// Pattern classifies one remote reference.
type Pattern int

const (
	PatternLocal  Pattern = iota // no communication
	PatternShift                 // constant-offset boundary exchange
	PatternGather                // every element remote
	PatternRemap                 // distribution mismatch: full remap
)

func (p Pattern) String() string {
	switch p {
	case PatternLocal:
		return "local"
	case PatternShift:
		return "shift"
	case PatternGather:
		return "gather"
	default:
		return "remap"
	}
}

// PVar is the symbolic processor count.
const PVar = symexpr.Var("P")

// RefCost is one right-hand-side reference's contribution.
type RefCost struct {
	Ref     string
	Pattern Pattern
	Msgs    symexpr.Poly
	Elems   symexpr.Poly
}

// Cost aggregates a statement's communication.
type Cost struct {
	Refs  []RefCost
	Msgs  symexpr.Poly
	Elems symexpr.Poly
}

// Cycles prices the cost under the model.
func (m Model) Cycles(c Cost) symexpr.Poly {
	return c.Msgs.Scale(m.Alpha).Add(c.Elems.Scale(m.Beta))
}

// Loop describes one nest level with its symbolic trip count.
type Loop struct {
	Var   string
	Trips symexpr.Poly
}

// EstimateAssign classifies each distributed right-hand-side reference
// of the assignment against the (owner-computes) left-hand side and
// returns symbolic message/element counts. Trip counts of the
// enclosing loops parameterize the expressions; the processor count is
// the symbolic variable P.
func EstimateAssign(tbl *sem.Table, a *source.Assign, loops []Loop) (Cost, error) {
	lhs, ok := a.LHS.(*source.ArrayRef)
	if !ok {
		// Scalar LHS: replicated; distributed RHS references gather to
		// every processor.
		lhs = nil
	}
	var lhsSym *sem.Symbol
	if lhs != nil {
		lhsSym = tbl.Lookup(lhs.Name)
	}
	loopVars := map[string]bool{}
	tripOf := map[string]symexpr.Poly{}
	for _, l := range loops {
		loopVars[l.Var] = true
		tripOf[l.Var] = l.Trips
	}

	out := Cost{Msgs: symexpr.Zero(), Elems: symexpr.Zero()}
	var rhsRefs []*source.ArrayRef
	collectRefs(a.RHS, &rhsRefs)
	for _, r := range rhsRefs {
		sym := tbl.Lookup(r.Name)
		if sym == nil || sym.Dist == nil {
			continue // replicated array: local
		}
		rc, err := classify(tbl, lhs, lhsSym, r, sym, loopVars, tripOf)
		if err != nil {
			return Cost{}, err
		}
		out.Refs = append(out.Refs, rc)
		out.Msgs = out.Msgs.Add(rc.Msgs)
		out.Elems = out.Elems.Add(rc.Elems)
	}
	return out, nil
}

// classify determines the pattern of one distributed RHS reference.
func classify(tbl *sem.Table, lhs *source.ArrayRef, lhsSym *sem.Symbol, r *source.ArrayRef, rSym *sem.Symbol, loopVars map[string]bool, tripOf map[string]symexpr.Poly) (RefCost, error) {
	rc := RefCost{Ref: source.ExprString(r)}
	rDim := distDim(rSym)
	if rDim < 0 {
		rc.Pattern = PatternLocal
		rc.Msgs, rc.Elems = symexpr.Zero(), symexpr.Zero()
		return rc, nil
	}

	// loopVar and offset project a subscript's affine form: its one
	// loop variable with the coefficient (non-loop scalars are offsets),
	// and its constant, known only when every variable is a loop
	// variable.
	loopVar := func(e source.Expr) (string, int64, bool) {
		a, ok := tbl.Affine(e)
		if !ok {
			return "", 0, false
		}
		return a.LoopVar(loopVars)
	}
	offset := func(e source.Expr) (int64, bool) {
		a, ok := tbl.Affine(e)
		for i := range a.Len() {
			ok = ok && loopVars[a.Term(i).Var]
		}
		return a.Const, ok
	}

	// Sweep size: product of trips of loop variables appearing in the
	// reference (elements touched per full nest execution).
	sweep := symexpr.Const(1)
	seen := map[string]bool{}
	for _, ix := range r.Idx {
		v, _, ok := loopVar(ix)
		if ok && v != "" && !seen[v] {
			seen[v] = true
			sweep = sweep.Mul(tripOf[v])
		}
	}
	// Sweep size of the non-distributed dimensions only (per-boundary
	// halo width multiplier for shifts).
	cross := symexpr.Const(1)
	for d, ix := range r.Idx {
		if d == rDim {
			continue
		}
		v, _, ok := loopVar(ix)
		if ok && v != "" {
			cross = cross.Mul(tripOf[v])
		}
	}

	gather := func() RefCost {
		rc.Pattern = PatternGather
		rc.Elems = sweep
		rc.Msgs = sweep
		return rc
	}

	if lhs == nil || lhsSym == nil || lhsSym.Dist == nil {
		// Replicated LHS reading a distributed array: broadcast-gather.
		return gather(), nil
	}
	lDim := distDim(lhsSym)
	if lDim < 0 {
		return gather(), nil
	}
	lPat := lhsSym.Dist.Pattern[lDim]
	rPat := rSym.Dist.Pattern[rDim]

	// Alignment: the distributed dims must be driven by the same loop
	// variable with equal coefficients for offset analysis.
	lv, lc, lok := loopVar(lhs.Idx[lDim])
	rv, rcoef, rok := loopVar(r.Idx[rDim])
	if !lok || !rok || lv == "" || rv == "" || lv != rv || lc != rcoef {
		if lPat != rPat {
			rc.Pattern = PatternRemap
			rc.Elems = sweep
			rc.Msgs = symexpr.NewVar(PVar).Mul(symexpr.NewVar(PVar))
			return rc, nil
		}
		return gather(), nil
	}

	// Constant offset between the aligned subscripts.
	lOff, lcok := offset(lhs.Idx[lDim])
	rOff, rcok := offset(r.Idx[rDim])
	if !lcok || !rcok {
		return gather(), nil
	}
	delta := rOff - lOff

	if lPat != rPat {
		rc.Pattern = PatternRemap
		rc.Elems = sweep
		rc.Msgs = symexpr.NewVar(PVar).Mul(symexpr.NewVar(PVar))
		return rc, nil
	}

	switch lPat {
	case "block":
		if delta == 0 {
			rc.Pattern = PatternLocal
			rc.Msgs, rc.Elems = symexpr.Zero(), symexpr.Zero()
			return rc, nil
		}
		// Boundary exchange: each of the P−1 internal boundaries moves
		// |delta| elements per unit of the cross dimensions.
		rc.Pattern = PatternShift
		pm1 := symexpr.NewVar(PVar).AddConst(-1)
		rc.Msgs = pm1
		rc.Elems = pm1.Scale(absF(float64(delta))).Mul(cross)
		return rc, nil
	case "cyclic":
		if delta == 0 {
			rc.Pattern = PatternLocal
			rc.Msgs, rc.Elems = symexpr.Zero(), symexpr.Zero()
			return rc, nil
		}
		// Under cyclic distribution an offset is local exactly when it
		// is a multiple of P — unknowable symbolically; the static
		// model charges the all-remote ring shift (every element moves,
		// aggregated into one message per processor), with the
		// delta-multiple-of-P refinement (CyclicLocalDelta) applied
		// when P becomes known.
		rc.Pattern = PatternGather
		rc.Elems = sweep
		rc.Msgs = symexpr.NewVar(PVar)
		return rc, nil
	default:
		return gather(), nil
	}
}

func absF(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// distDim returns the (single) distributed dimension of a symbol, or
// −1.
func distDim(sym *sem.Symbol) int {
	if sym == nil || sym.Dist == nil {
		return -1
	}
	for d, p := range sym.Dist.Pattern {
		if p == "block" || p == "cyclic" {
			return d
		}
	}
	return -1
}

// CyclicLocalDelta reports whether a constant offset is local under a
// cyclic distribution on P processors (the refinement the paper's
// run-time tests would check).
func CyclicLocalDelta(delta int64, p int64) bool {
	if p <= 0 {
		return false
	}
	return delta%p == 0
}

// --- exact enumeration (ground truth) ------------------------------

// ConcreteLoop is a loop with concrete bounds for enumeration.
type ConcreteLoop struct {
	Var          string
	Lb, Ub, Step int64
}

// EnumerateAssign walks the whole iteration space and counts, under
// owner-computes, the remote element fetches the assignment performs:
// msgs is the number of distinct (source, destination) processor pairs
// with traffic (aggregated messaging), elems the number of distinct
// (destination, array, element) fetches (halo elements are fetched
// once).
func EnumerateAssign(tbl *sem.Table, a *source.Assign, loops []ConcreteLoop, procs int) (msgs, elems int64, err error) {
	lhs, isArr := a.LHS.(*source.ArrayRef)
	if !isArr {
		return 0, 0, fmt.Errorf("comm: enumeration requires an array LHS")
	}
	var rhsRefs []*source.ArrayRef
	collectRefs(a.RHS, &rhsRefs)

	env := &sem.Env{Scalars: map[string]float64{}}
	// Constants from the table.
	for _, s := range tbl.Symbols() {
		if s.IsConst {
			env.Scalars[s.Name] = s.ConstVal
		}
	}
	pairSeen := map[[2]int64]bool{}
	elemSeen := map[string]bool{}

	var walk func(level int) error
	walk = func(level int) error {
		if level == len(loops) {
			owner, err := ownerOf(tbl, lhs, env, procs)
			if err != nil {
				return err
			}
			for _, r := range rhsRefs {
				sym := tbl.Lookup(r.Name)
				if sym == nil || sym.Dist == nil {
					continue
				}
				src, err := ownerOf(tbl, r, env, procs)
				if err != nil {
					return err
				}
				if src == owner || src < 0 || owner < 0 {
					continue
				}
				flat, err := flatIndex(tbl, r, env)
				if err != nil {
					return err
				}
				key := fmt.Sprintf("%d|%s|%d", owner, r.Name, flat)
				if !elemSeen[key] {
					elemSeen[key] = true
					elems++
				}
				pair := [2]int64{src, owner}
				if !pairSeen[pair] {
					pairSeen[pair] = true
					msgs++
				}
			}
			return nil
		}
		l := loops[level]
		step := l.Step
		if step == 0 {
			step = 1
		}
		for v := l.Lb; (step > 0 && v <= l.Ub) || (step < 0 && v >= l.Ub); v += step {
			env.Scalars[l.Var] = float64(v)
			if err := walk(level + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(0); err != nil {
		return 0, 0, err
	}
	return msgs, elems, nil
}

// ownerOf computes the owning processor of an array element under its
// distribution (−1 when the array is replicated).
func ownerOf(tbl *sem.Table, r *source.ArrayRef, env *sem.Env, procs int) (int64, error) {
	sym := tbl.Lookup(r.Name)
	if sym == nil || sym.Dist == nil {
		return -1, nil
	}
	d := distDim(sym)
	if d < 0 {
		return -1, nil
	}
	idx, err := evalInt(tbl, r.Idx[d], env)
	if err != nil {
		return 0, err
	}
	extent := sym.Dims[d]
	if extent <= 0 {
		return 0, fmt.Errorf("comm: array %s has unresolved extent", r.Name)
	}
	p := int64(procs)
	switch sym.Dist.Pattern[d] {
	case "block":
		blockSize := (extent + p - 1) / p
		return (idx - 1) / blockSize, nil
	case "cyclic":
		return (idx - 1) % p, nil
	default:
		return -1, nil
	}
}

func flatIndex(tbl *sem.Table, r *source.ArrayRef, env *sem.Env) (int64, error) {
	sym := tbl.Lookup(r.Name)
	var idx, stride int64 = 0, 1
	for d, ix := range r.Idx {
		v, err := evalInt(tbl, ix, env)
		if err != nil {
			return 0, err
		}
		idx += (v - 1) * stride
		if d < len(sym.Dims) && sym.Dims[d] > 0 {
			stride *= sym.Dims[d]
		}
	}
	return idx, nil
}

// evalInt evaluates a subscript over the loop variables and constants
// in env; an array element does not evaluate.
func evalInt(tbl *sem.Table, e source.Expr, env *sem.Env) (int64, error) {
	v, err := tbl.Eval(e, env)
	if err != nil {
		return 0, fmt.Errorf("comm: %w", err)
	}
	return int64(v), nil
}

func collectRefs(e source.Expr, out *[]*source.ArrayRef) {
	switch x := e.(type) {
	case *source.ArrayRef:
		*out = append(*out, x)
		for _, ix := range x.Idx {
			collectRefs(ix, out)
		}
	case *source.BinExpr:
		collectRefs(x.L, out)
		collectRefs(x.R, out)
	case *source.UnExpr:
		collectRefs(x.X, out)
	case *source.IntrinsicCall:
		for _, a := range x.Args {
			collectRefs(a, out)
		}
	}
}
