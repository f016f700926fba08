// Package aggregate implements the cost aggregation of compound
// statements (Wang, PLDI 1994, §2.4): straight-line segments are priced
// by the Tetris cost model, loops sum their body cost symbolically over
// the iteration space (Faulhaber closed forms via package symexpr),
// and conditionals combine branch costs with branching probabilities —
// kept symbolic when unknown. The §3.3.2 special case (a condition on
// the enclosing loop index, `if (i .le. k)`) is recognized and turned
// into an exact iteration-set split: C(L) = k·C(Bt) + (n−k)·C(Bf).
package aggregate

import (
	"fmt"
	"math"

	"perfpredict/internal/cachemodel"
	"perfpredict/internal/ir"
	"perfpredict/internal/lower"
	"perfpredict/internal/lru"
	"perfpredict/internal/machine"
	"perfpredict/internal/sem"
	"perfpredict/internal/source"
	"perfpredict/internal/symexpr"
	"perfpredict/internal/tetris"
)

// Options tune aggregation.
type Options struct {
	Lower  lower.Options
	Tetris tetris.Options
	// SteadyStateIters controls how many times the innermost block is
	// dropped into the bins to estimate the per-iteration cost (the
	// paper's second unrolling estimator); 1 disables overlap between
	// iterations.
	SteadyStateIters int
	// SimplifyCloseBranches drops the probability variable when the two
	// branch costs are within CloseTol of each other (§3.3.2: "if the
	// two branches … have performance estimations that are very close,
	// the reaching probability … can be ignored").
	SimplifyCloseBranches bool
	CloseTol              float64
	// AssumeBranchProb, when in (0,1], substitutes this probability for
	// unrecognized conditions instead of introducing a symbolic
	// variable (the "guess" escape hatch).
	AssumeBranchProb float64
	// Library is the external-library cost table (§3.5): calls to
	// routines listed here are priced by substituting the actual
	// parameters into the routine's stored performance expression.
	Library LibraryTable
}

// DefaultOptions matches the paper's defaults: symbolic probabilities,
// 4-drop steady state, close-branch simplification at 10%.
func DefaultOptions() Options {
	return Options{
		Lower:                 lower.DefaultOptions(),
		SteadyStateIters:      4,
		SimplifyCloseBranches: true,
		CloseTol:              0.10,
	}
}

// Unknown describes one symbolic variable introduced during
// aggregation.
type Unknown struct {
	Var  symexpr.Var
	Kind string // "bound", "probability", "opaque"
	Desc string // source text it stands for
}

// Result is an aggregated performance expression.
type Result struct {
	// Cost is total cycles as a polynomial over program unknowns.
	Cost symexpr.Poly
	// OneTime is the hoisted (loop-invariant) cost, already included
	// in Cost.
	OneTime symexpr.Poly
	// Memory is the §2.3 cache/TLB miss cost, already included in
	// Cost. Zero unless the machine declares an active memory
	// hierarchy; Cost − Memory is the in-core (Tetris) term.
	Memory symexpr.Poly
	// Unknowns lists the variables appearing in Cost.
	Unknowns []Unknown
}

// SegCache memoizes straight-line segment costs across estimations —
// the mechanism behind the paper's incremental prediction update
// (§3.3.1): a transformation's *affected region* re-prices only the
// segments it changed; unchanged segments hit the cache. Share one
// SegCache across the program variants explored by a transformation
// search, or across the workers of a batch prediction.
//
// Entries are keyed by a 128-bit structural fingerprint of everything
// a segment's price depends on: the machine's content fingerprint and
// the aggregation options, the segment's statements, the enclosing
// loop variables, whether it runs inside a loop, and the declarations
// and constants visible to the names it references (see
// Estimator.segKey). Like the NestCache, the cache treats fingerprint
// collisions as impossible.
//
// A SegCache is an lru.Cache bounded to segBudget entries, so a
// long-lived shared instance stops growing; an evicted segment is
// simply priced again. It is safe for concurrent use by multiple
// goroutines. Two estimators missing on the same key concurrently may
// both price the segment, but the entries they store are identical,
// so results are deterministic regardless of interleaving and of
// eviction.
type SegCache struct {
	c lru.Cache[source.Fingerprint, segEntry]
}

// segBudget bounds a SegCache's entries. It is far above the working
// set of one search or sweep, so only a long-running server evicts.
const segBudget = 1 << 18

type segEntry struct {
	iter  float64
	pre   float64
	entry float64
}

// initFPCache sizes one fingerprint-keyed table of the cost caches:
// budget entries striped over the maximum shard count by the key's
// low bits.
func initFPCache[V any](c *lru.Cache[source.Fingerprint, V], budget int64) {
	c.Init(lru.Config[source.Fingerprint, V]{
		Budget: budget,
		Shards: lru.MaxShards,
		Bits:   func(k source.Fingerprint) uint64 { return k.Lo },
	})
}

// NewSegCache creates an empty segment cache, ready for concurrent
// use. Shard tables are created lazily on first store, so a private
// per-estimator cache costs one allocation.
func NewSegCache() *SegCache { return NewSegCacheSized(segBudget) }

// NewSegCacheSized creates a segment cache bounded to budget entries.
// NewSegCache is the production size; tests shrink the budget to
// force eviction.
func NewSegCacheSized(budget int) *SegCache {
	c := &SegCache{}
	initFPCache(&c.c, int64(budget))
	return c
}

// Stats reports hits and misses so far. Safe to call concurrently with
// ongoing estimations.
func (c *SegCache) Stats() (hits, misses int) {
	st := c.c.Stats()
	return int(st.Hits), int(st.Misses)
}

// Len reports the number of cached segment entries.
func (c *SegCache) Len() int { return c.c.Len() }

// Evictions reports how many entries have been dropped to respect the
// budget.
func (c *SegCache) Evictions() int { return int(c.c.Stats().Evictions) }

// Estimator aggregates costs for one program unit on one machine.
type Estimator struct {
	tbl *sem.Table
	m   *machine.Machine  // sealed
	c   *machine.Compiled // m's compiled form
	opt Options

	trans    *lower.Translator
	preVals  []float64
	unknowns []Unknown
	seen     map[symexpr.Var]bool
	fresh    int
	cache    *SegCache
	lowered  *LowerMemo
	// names is the key builders' scratch set of referenced
	// identifiers; nodes memoises statement digests and name sets
	// (nil hashes from scratch).
	names map[string]bool
	nodes *source.NodeMemo

	// Incremental re-pricing state (see incremental.go). nc is the
	// shared nest-level cost cache; prog the program being priced
	// (needed for per-nest environment fingerprints); changed the
	// advisory dirty-path hint; logging gates the unknown-registration
	// event log that makes cached nests relocatable.
	nc      *NestCache
	prog    *source.Program
	changed [][]int
	logging bool
	events  []regEvent
	keyFP   source.Fingerprint // machine content + options
	auxFP   source.Fingerprint // keyFP + whole-program environment
}

// New creates an estimator with a private segment cache and a private
// lowering memo.
//
// An Estimator itself is single-goroutine state; to predict
// concurrently, give each goroutine its own Estimator. They may share
// one SegCache (see NewWithCache).
func New(tbl *sem.Table, m *machine.Machine, opt Options) *Estimator {
	return NewWithCache(tbl, m, opt, nil)
}

// NewWithCache creates an estimator sharing a segment cache (pass nil
// for a private one). Its lowering memo is private (see NewWithCaches
// to share one).
//
// Concurrency contract: the SegCache is safe to share between
// estimators running on different goroutines — cached segment costs
// depend only on the segment key, so concurrent fills are idempotent
// and predictions are byte-identical to serial runs. The Estimator
// returned here, like the one from New, must not itself be used from
// more than one goroutine at a time.
func NewWithCache(tbl *sem.Table, m *machine.Machine, opt Options, cache *SegCache) *Estimator {
	if opt.SteadyStateIters <= 0 {
		opt.SteadyStateIters = 4
	}
	if cache == nil {
		cache = NewSegCache()
	}
	m = m.Sealed()
	c := m.Compiled()
	return &Estimator{
		tbl:   tbl,
		m:     m,
		c:     c,
		opt:   opt,
		trans: lower.New(tbl, m, opt.Lower),
		seen:  map[symexpr.Var]bool{},
		cache: cache,
		names: map[string]bool{},
		keyFP: optionsFingerprint(c.Fingerprint(), opt),
	}
}

// Program aggregates the whole program body.
func (e *Estimator) Program(p *source.Program) (Result, error) {
	e.preVals = e.preVals[:0]
	e.unknowns = nil
	e.seen = map[symexpr.Var]bool{}
	e.events = e.events[:0]
	e.prog = p
	e.logging = e.nc != nil && !e.nc.disabled
	if e.logging {
		e.auxFP = e.keyFP.Mix(source.FingerprintEnv(p))
	}
	c, err := e.stmts(p.Body, nil, []int{})
	if err != nil {
		return Result{}, err
	}
	pre := e.prePoly()
	total := c.base.Add(c.entry).Add(pre)
	for _, g := range c.guarded {
		// Guards that survive to the top level (no enclosing loop over
		// their variable) degrade to probability-like unknowns: keep
		// the term weighted by nothing — the guard variable is a free
		// unknown, so conservatively include the term fully.
		total = total.Add(g.poly)
	}
	return Result{Cost: total, OneTime: pre, Memory: c.mem, Unknowns: e.unknowns}, nil
}

// Stmts aggregates a statement list under the given enclosing loops
// (outermost first). Exposed for per-fragment estimates. Fragments
// carry no program environment, so nest-level caching is suspended for
// the duration of the call.
func (e *Estimator) Stmts(stmts []source.Stmt, loops []LoopCtx) (Result, error) {
	savedProg, savedLogging, savedChanged := e.prog, e.logging, e.changed
	e.prog, e.logging, e.changed = nil, false, nil
	defer func() { e.prog, e.logging, e.changed = savedProg, savedLogging, savedChanged }()
	e.preVals = e.preVals[:0]
	e.unknowns = nil
	e.seen = map[symexpr.Var]bool{}
	c, err := e.stmts(stmts, loops, nil)
	if err != nil {
		return Result{}, err
	}
	pre := e.prePoly()
	total := c.base.Add(c.entry).Add(pre)
	for _, g := range c.guarded {
		total = total.Add(g.poly)
	}
	return Result{Cost: total, OneTime: pre, Memory: c.mem, Unknowns: e.unknowns}, nil
}

// LoopCtx describes one enclosing loop for fragment-level estimation.
type LoopCtx struct {
	Var  string
	Lb   symexpr.Poly
	Ub   symexpr.Poly
	Step int
}

// cost is the internal compositional form: a base polynomial (per
// iteration of the enclosing loop), an entry polynomial charged once
// per activation of the innermost enclosing loop (register-promotion
// loads/stores), plus guarded terms that an enclosing loop converts
// into restricted sums. mem shadows the memory-hierarchy share of
// base: it is *included* in base, so every existing combination rule
// stays valid, and is carried separately only so the final Result can
// report the in-core vs memory split.
type cost struct {
	base    symexpr.Poly
	entry   symexpr.Poly
	mem     symexpr.Poly
	guarded []guardedTerm
}

type guardedTerm struct {
	loopVar string         // the (outer) loop variable the guard tests
	rel     source.BinKind // LE, LT, GE, GT, EQ over the loop variable
	bound   symexpr.Poly   // loop-invariant bound
	poly    symexpr.Poly   // active cost when the guard holds
}

func (c cost) add(d cost) cost {
	return cost{
		base:    c.base.Add(d.base),
		entry:   c.entry.Add(d.entry),
		mem:     c.mem.Add(d.mem),
		guarded: append(append([]guardedTerm{}, c.guarded...), d.guarded...),
	}
}

// stmts aggregates a statement list. path is the xform.Path-style
// address of the list (nil inside regions paths cannot address, such
// as IF branches); it positions loop nests for the nest cache.
func (e *Estimator) stmts(list []source.Stmt, loops []LoopCtx, path []int) (cost, error) {
	total := cost{base: symexpr.Zero(), entry: symexpr.Zero()}
	i := 0
	loopVars := make([]string, len(loops))
	for k, l := range loops {
		loopVars[k] = l.Var
	}
	for i < len(list) {
		j := i
		for j < len(list) && isStraight(list[j]) && !e.isLibCall(list[j]) {
			j++
		}
		if j > i {
			c, err := e.straight(list[i:j], loopVars, len(loops) > 0)
			if err != nil {
				return cost{}, err
			}
			total = total.add(c)
			i = j
			continue
		}
		if call, ok := list[i].(*source.CallStmt); ok && e.isLibCall(call) {
			libCost, resolved, err := e.callCost(call, loopVars)
			if err != nil {
				return cost{}, err
			}
			if resolved {
				linkage := float64(e.c.Latency(ir.OpCall))
				total = total.add(cost{base: libCost.AddConst(linkage), entry: symexpr.Zero()})
				i++
				continue
			}
		}
		switch x := list[i].(type) {
		case *source.DoLoop:
			c, err := e.loopUnit(x, loops, childPath(path, i))
			if err != nil {
				return cost{}, err
			}
			total = total.add(c)
		case *source.IfStmt:
			c, err := e.ifStmt(x, loops)
			if err != nil {
				return cost{}, err
			}
			total = total.add(c)
		case *source.ReturnStmt:
			return total, nil
		default:
			return cost{}, fmt.Errorf("%s: cannot aggregate %T", list[i].StmtPos(), list[i])
		}
		i++
	}
	return total, nil
}

// isLibCall reports whether the statement is a CALL resolvable through
// the library cost table.
func (e *Estimator) isLibCall(s source.Stmt) bool {
	c, ok := s.(*source.CallStmt)
	if !ok || e.opt.Library == nil {
		return false
	}
	_, found := e.opt.Library[c.Name]
	return found
}

func isStraight(s source.Stmt) bool {
	switch s.(type) {
	case *source.Assign, *source.CallStmt, *source.ContinueStmt:
		return true
	default:
		return false
	}
}

// straight prices a straight-line segment. Inside loops the
// steady-state per-iteration cost is used (iterations overlap in the
// bins); the hoisted preheader cost accumulates into the one-time bin.
func (e *Estimator) straight(stmts []source.Stmt, loopVars []string, inLoop bool) (cost, error) {
	key := e.segKey(stmts, loopVars, inLoop)
	if ent, ok := e.cache.c.Get(key); ok {
		e.addPre(ent.pre)
		return cost{base: symexpr.Const(ent.iter), entry: symexpr.Const(ent.entry)}, nil
	}
	lw, err := e.lowerBody(stmts, loopVars)
	if err != nil {
		return cost{}, err
	}
	ent := segEntry{}
	if len(lw.Pre.Instrs) > 0 {
		preRes, err := e.tetEstimate(lw.Pre)
		if err != nil {
			return cost{}, err
		}
		ent.pre = float64(preRes.Cost)
		e.addPre(ent.pre)
	}
	switch {
	case len(lw.Body.Instrs) == 0:
	case inLoop && e.opt.SteadyStateIters > 1:
		// Register-promoted accumulators chain across iterations: the
		// steady-state drop must see the serial dependence.
		var chain map[ir.Reg]ir.Reg
		for _, pv := range lw.Promoted {
			if pv.InReg != ir.NoReg && pv.OutReg != ir.NoReg {
				if chain == nil {
					chain = map[ir.Reg]ir.Reg{}
				}
				chain[pv.InReg] = pv.OutReg
			}
		}
		per, err := e.tetSteadyStateChained(lw.Body, e.opt.SteadyStateIters, chain)
		if err != nil {
			return cost{}, err
		}
		ent.iter = per
	default:
		res, err := e.tetEstimate(lw.Body)
		if err != nil {
			return cost{}, err
		}
		ent.iter = float64(res.Cost)
	}
	// Register-promotion loads and final stores execute once per
	// activation of the innermost enclosing loop.
	for _, blk := range []*ir.Block{lw.PerEntry, lw.Post} {
		if blk == nil || len(blk.Instrs) == 0 {
			continue
		}
		res, err := e.tetEstimate(blk)
		if err != nil {
			return cost{}, err
		}
		ent.entry += float64(res.Cost)
	}
	e.cache.c.Put(key, ent)
	return cost{base: symexpr.Const(ent.iter), entry: symexpr.Const(ent.entry)}, nil
}

// segKey builds a segment-cache key. It starts from keyFP, the
// machine's content fingerprint mixed with the aggregation options: a
// SegCache shared across targets (successive batches, multi-target
// searches) can only hit entries priced for a machine with the
// identical cost table — name and pointer identity play no part — and
// under the identical lowering, tetris and steady-state options.
// Lowering also reads the types, shapes and constants of the names the
// segment references, so their declarations are part of the key: the
// same statements over integer and real arrays price differently.
// Declarations of names the segment never mentions are left out, so a
// variant that only adds declarations still hits.
func (e *Estimator) segKey(stmts []source.Stmt, loopVars []string, inLoop bool) source.Fingerprint {
	fp := e.keyFP.Mix(e.nodes.Stmts(stmts)).MixUint64(uint64(len(loopVars)))
	for _, v := range loopVars {
		fp = fp.MixString(v)
	}
	if inLoop {
		fp = fp.MixUint64(1)
	} else {
		fp = fp.MixUint64(0)
	}
	clear(e.names)
	for _, s := range stmts {
		e.nodes.AddNames(s, e.names)
	}
	return fp.Mix(source.FingerprintEnvFor(e.tbl.Program, e.names))
}

// loop aggregates C(do v = lb, ub, step {B}) = C(lb)+C(ub)+C(step) +
// Σ_v (C(B(v)) + loop overhead) per §2.4.1. path positions the loop
// for nested nest-cache lookups (see loopUnit, the caching wrapper
// every caller goes through).
func (e *Estimator) loop(l *source.DoLoop, loops []LoopCtx, path []int) (cost, error) {
	loopVars := make([]string, len(loops))
	for k, lc := range loops {
		loopVars[k] = lc.Var
	}
	boundsCost := symexpr.Zero()
	for _, b := range []source.Expr{l.Lb, l.Ub, l.Step} {
		if b == nil {
			continue
		}
		ent, err := e.boundExprCost(b, loopVars)
		if err != nil {
			return cost{}, err
		}
		if ent.hasIter {
			boundsCost = boundsCost.AddConst(ent.iter)
		}
		if ent.hasPre {
			e.addPre(ent.pre)
		}
	}

	lbP := e.exprPoly(l.Lb, loopVars)
	ubP := e.exprPoly(l.Ub, loopVars)
	step := 1
	if l.Step != nil {
		if c, ok := e.tbl.IntConst(l.Step); ok && c != 0 {
			step = int(c)
		} else {
			// Symbolic step: fall back to a trip-count unknown.
			step = 1
			v := e.freshVar("opaque", "step "+source.ExprString(l.Step))
			_ = v
		}
	}
	if step < 0 {
		// Downward loop: normalize by swapping bounds.
		lbP, ubP = ubP, lbP
		step = -step
	}

	inner := append(append([]LoopCtx{}, loops...), LoopCtx{Var: l.Var, Lb: lbP, Ub: ubP, Step: step})
	bodyCost, err := e.stmts(l.Body, inner, path)
	if err != nil {
		return cost{}, err
	}

	// Per-iteration loop control, partially hidden under the body
	// (branch shape test, §2.4.2).
	ctl, err := e.loopOverhead(l, loopVars)
	if err != nil {
		return cost{}, err
	}
	perIter := bodyCost.base.AddConst(ctl)

	out := cost{base: boundsCost, entry: symexpr.Zero()}
	lv := symexpr.Var(l.Var)
	sum, _, err := symexpr.SumOverStep(perIter, lv, lbP, ubP, step)
	if err != nil {
		return cost{}, fmt.Errorf("%s: summing loop %s: %w", l.Pos, l.Var, err)
	}
	out.base = out.base.Add(sum)
	// The body's per-entry cost (promotion loads/stores) runs once per
	// activation of this loop, i.e. once per iteration of the parent.
	out.base = out.base.Add(bodyCost.entry)
	// The memory shadow is part of bodyCost.base and so already summed
	// into out.base; sum it separately to keep the split consistent.
	// (Memory is only ever charged at nest roots, so this is zero for
	// every nested loop today.)
	if !bodyCost.mem.IsZero() {
		ms, _, err := symexpr.SumOverStep(bodyCost.mem, lv, lbP, ubP, step)
		if err != nil {
			return cost{}, err
		}
		out.mem = out.mem.Add(ms)
	}

	// Guarded terms: restrict the iteration range when the guard tests
	// this loop's variable; otherwise sum and propagate.
	for _, g := range bodyCost.guarded {
		if g.loopVar != l.Var {
			gs, _, err := symexpr.SumOverStep(g.poly, lv, lbP, ubP, step)
			if err != nil {
				return cost{}, err
			}
			out.guarded = append(out.guarded, guardedTerm{g.loopVar, g.rel, g.bound, gs})
			continue
		}
		restricted, err := e.restrictedSum(g, lv, lbP, ubP, step)
		if err != nil {
			return cost{}, err
		}
		out.base = out.base.Add(restricted)
	}

	// At a nest root (no enclosing loop) of a machine with an active
	// memory hierarchy, fold the symbolic §2.3 miss cost for the whole
	// nest — every cache level's distinct-line count times its miss
	// penalty, plus the TLB term — into the nest's price. Inactive
	// hierarchies skip the pass entirely so that their predictions
	// (including unknown-registration order) stay byte-identical to a
	// machine with no hierarchy.
	if len(loops) == 0 && e.c.Memory().Active() {
		memP, err := e.nestMemory(l)
		if err != nil {
			return cost{}, err
		}
		if !memP.IsZero() {
			out.base = out.base.Add(memP)
			out.mem = out.mem.Add(memP)
		}
	}
	return out, nil
}

// nestMemory prices the memory traffic of one top-level loop nest:
// the subtree's loops (including imperfectly nested and branch-local
// ones) are collected with their symbolic bounds and handed to the
// cachemodel's per-level line counter. Loop variables reused by
// sibling loops keep their first-seen bounds — an approximation the
// concrete estimator shares.
func (e *Estimator) nestMemory(l *source.DoLoop) (symexpr.Poly, error) {
	var nest []cachemodel.NestLoop
	e.collectMemLoops(l, &nest, map[string]bool{})
	memP, err := cachemodel.NestMemoryCycles(e.tbl, nest, l.Body, e.c.Memory())
	if err != nil {
		return symexpr.Poly{}, fmt.Errorf("%s: memory cost of nest %s: %w", l.Pos, l.Var, err)
	}
	return memP, nil
}

// collectMemLoops walks a loop subtree outermost-first, recording each
// loop's variable and normalized symbolic bounds for the memory model.
func (e *Estimator) collectMemLoops(l *source.DoLoop, out *[]cachemodel.NestLoop, seen map[string]bool) {
	lbP := e.exprPoly(l.Lb, nil)
	ubP := e.exprPoly(l.Ub, nil)
	step := 1
	if l.Step != nil {
		if c, ok := e.tbl.IntConst(l.Step); ok && c != 0 {
			step = int(c)
		}
	}
	if step < 0 {
		lbP, ubP = ubP, lbP
		step = -step
	}
	if !seen[l.Var] {
		seen[l.Var] = true
		*out = append(*out, cachemodel.NestLoop{Var: l.Var, Lb: lbP, Ub: ubP, Step: step})
	}
	var walk func(stmts []source.Stmt)
	walk = func(stmts []source.Stmt) {
		for _, s := range stmts {
			switch x := s.(type) {
			case *source.DoLoop:
				e.collectMemLoops(x, out, seen)
			case *source.IfStmt:
				walk(x.Then)
				walk(x.Else)
			}
		}
	}
	walk(l.Body)
}

// restrictedSum computes Σ over the guard-limited range, assuming (as
// the paper's example does) that the bound lies within the iteration
// space.
func (e *Estimator) restrictedSum(g guardedTerm, v symexpr.Var, lb, ub symexpr.Poly, step int) (symexpr.Poly, error) {
	switch g.rel {
	case source.BinLE: // v ≤ bound: lb..bound
		s, _, err := symexpr.SumOverStep(g.poly, v, lb, g.bound, step)
		return s, err
	case source.BinLT: // lb..bound−1
		s, _, err := symexpr.SumOverStep(g.poly, v, lb, g.bound.AddConst(-1), step)
		return s, err
	case source.BinGE: // bound..ub
		s, _, err := symexpr.SumOverStep(g.poly, v, g.bound, ub, step)
		return s, err
	case source.BinGT: // bound+1..ub
		s, _, err := symexpr.SumOverStep(g.poly, v, g.bound.AddConst(1), ub, step)
		return s, err
	case source.BinEQ: // single iteration v = bound
		return g.poly.Substitute(v, g.bound)
	case source.BinNE: // all but one iteration
		all, _, err := symexpr.SumOverStep(g.poly, v, lb, ub, step)
		if err != nil {
			return symexpr.Zero(), err
		}
		one, err := g.poly.Substitute(v, g.bound)
		if err != nil {
			return symexpr.Zero(), err
		}
		return all.Sub(one), nil
	default:
		return symexpr.Zero(), fmt.Errorf("unsupported guard relation %v", g.rel)
	}
}

// loopOverhead prices the increment/compare/back-branch, hidden under
// the body's shape where possible.
func (e *Estimator) loopOverhead(l *source.DoLoop, loopVars []string) (float64, error) {
	base, err := e.ctlBase()
	if err != nil {
		return 0, err
	}
	// The back-branch is covered when the body keeps the non-FXU units
	// busy past the compare (shape test): approximate with the body's
	// first straight-line segment shape.
	if shape, ok := e.shapeFor(l.Body, append(loopVars, l.Var)); ok {
		uncovered := tetris.BranchCovered(shape, int(base))
		return float64(uncovered), nil
	}
	return base, nil
}

func (e *Estimator) bodyShape(body []source.Stmt, loopVars []string) (tetris.CostBlock, bool) {
	var run []source.Stmt
	for _, s := range body {
		if !isStraight(s) {
			break
		}
		run = append(run, s)
	}
	if len(run) == 0 {
		return tetris.CostBlock{}, false
	}
	lw, err := e.lowerBody(run, loopVars)
	if err != nil || len(lw.Body.Instrs) == 0 {
		return tetris.CostBlock{}, false
	}
	res, err := e.tetShape(lw.Body)
	if err != nil {
		return tetris.CostBlock{}, false
	}
	return res.Shape, true
}

// ifStmt aggregates C(if c then Bt else Bf) = C(c) + pt·C(Bt) +
// pf·C(Bf) + c_br (§2.4.1).
func (e *Estimator) ifStmt(s *source.IfStmt, loops []LoopCtx) (cost, error) {
	loopVars := make([]string, len(loops))
	for k, lc := range loops {
		loopVars[k] = lc.Var
	}
	condCost := symexpr.Zero()
	lw, err := e.lowerCondition(s.Cond, loopVars)
	if err != nil {
		return cost{}, err
	}
	if len(lw.Pre.Instrs) > 0 {
		preRes, err := e.tetEstimate(lw.Pre)
		if err != nil {
			return cost{}, err
		}
		e.addPre(float64(preRes.Cost))
	}
	condRes, err := e.tetShape(lw.Body)
	if err != nil {
		return cost{}, err
	}
	condVal := float64(condRes.Cost)
	if len(loops) > 0 && e.opt.SteadyStateIters > 1 {
		// Repeated evaluations of the condition overlap like any other
		// straight-line block.
		per, err := e.tetSteadyState(lw.Body, e.opt.SteadyStateIters)
		if err != nil {
			return cost{}, err
		}
		condVal = per
	}
	condCost = condCost.AddConst(condVal)

	thenCost, err := e.stmts(s.Then, loops, nil)
	if err != nil {
		return cost{}, err
	}
	elseCost, err := e.stmts(s.Else, loops, nil)
	if err != nil {
		return cost{}, err
	}

	cbr := float64(e.c.BranchCost())
	// Branch-optimization shape test: a branch whose taken block keeps
	// the FXU ahead of the FP pipes hides (part of) the penalty.
	thenShape, thenShapeOK := e.shapeFor(s.Then, loopVars)
	elseShape, elseShapeOK := e.shapeFor(s.Else, loopVars)
	if thenShapeOK {
		cbr = float64(tetris.BranchCovered(thenShape, e.c.BranchCost()))
	}
	// Figure 9 overlap: the condition block and the selected branch
	// interlock; credit each constant-cost branch with the shape
	// overlap, bounded so the combination stays positive.
	overlapCredit := func(c cost, shape tetris.CostBlock, ok bool) cost {
		base, isConst := c.base.IsConst()
		if !ok || !isConst || base <= 0 {
			return c
		}
		_, saved := tetris.Concat(condRes.Shape, shape)
		credit := math.Min(float64(saved), 0.8*base)
		c.base = symexpr.Const(base - credit)
		return c
	}
	thenCost = overlapCredit(thenCost, thenShape, thenShapeOK)
	elseCost = overlapCredit(elseCost, elseShape, elseShapeOK)
	out := cost{base: condCost.AddConst(cbr)}
	// Per-entry promotion costs of either branch are charged at loop
	// entry regardless of the branch taken (speculative promotion).
	out.entry = thenCost.entry.Add(elseCost.entry)

	// §3.3.2 close-branch simplification: when both branch costs are
	// (nearly) equal, the reaching probability is irrelevant.
	tb, tOK := thenCost.base.IsConst()
	eb, eOK := elseCost.base.IsConst()
	branchesClose := tOK && eOK && len(thenCost.guarded)+len(elseCost.guarded) == 0 &&
		closeEnough(tb, eb, e.opt.CloseTol)
	if e.opt.SimplifyCloseBranches && branchesClose {
		out.base = out.base.AddConst((tb + eb) / 2)
		out.mem = thenCost.mem.Add(elseCost.mem).Scale(0.5)
		return out, nil
	}

	// Loop-index condition (§3.3.2): `v REL bound` with v an enclosing
	// loop variable and bound invariant → exact iteration split.
	if v, rel, bound, ok := e.loopIndexCond(s.Cond, loops); ok {
		out.guarded = append(out.guarded, guardsFor(v, rel, bound, thenCost)...)
		out.guarded = append(out.guarded, guardsFor(v, negateRel(rel), bound, elseCost)...)
		// Memory is charged only at nest roots, and this split requires
		// an enclosing loop, so the branch mem shadows are zero here.
		out.mem = thenCost.mem.Add(elseCost.mem)
		return out, nil
	}

	// Recognized probability: mod(v, c) .eq. k → 1/c (§3.3.2's "simple
	// conditional expressions whose reaching probabilities can be
	// guessed").
	if p, ok := e.modProb(s.Cond); ok {
		out.base = out.base.
			Add(thenCost.base.Scale(p)).
			Add(elseCost.base.Scale(1 - p))
		out.mem = thenCost.mem.Scale(p).Add(elseCost.mem.Scale(1 - p))
		out.guarded = append(out.guarded, scaleGuards(thenCost.guarded, p)...)
		out.guarded = append(out.guarded, scaleGuards(elseCost.guarded, 1-p)...)
		return out, nil
	}

	// General case: symbolic branching probability.
	if e.opt.AssumeBranchProb > 0 {
		p := e.opt.AssumeBranchProb
		out.base = out.base.Add(thenCost.base.Scale(p)).Add(elseCost.base.Scale(1 - p))
		out.mem = thenCost.mem.Scale(p).Add(elseCost.mem.Scale(1 - p))
		out.guarded = append(out.guarded, scaleGuards(thenCost.guarded, p)...)
		out.guarded = append(out.guarded, scaleGuards(elseCost.guarded, 1-p)...)
		return out, nil
	}
	pv := e.freshVar("probability", source.ExprString(s.Cond))
	p := symexpr.NewVar(pv)
	oneMinus := symexpr.Const(1).Sub(p)
	out.base = out.base.
		Add(thenCost.base.Mul(p)).
		Add(elseCost.base.Mul(oneMinus))
	out.mem = thenCost.mem.Mul(p).Add(elseCost.mem.Mul(oneMinus))
	for _, g := range thenCost.guarded {
		out.guarded = append(out.guarded, guardedTerm{g.loopVar, g.rel, g.bound, g.poly.Mul(p)})
	}
	for _, g := range elseCost.guarded {
		out.guarded = append(out.guarded, guardedTerm{g.loopVar, g.rel, g.bound, g.poly.Mul(oneMinus)})
	}
	return out, nil
}

func closeEnough(a, b, tol float64) bool {
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return true
	}
	return math.Abs(a-b) <= tol*m
}

func guardsFor(v string, rel source.BinKind, bound symexpr.Poly, c cost) []guardedTerm {
	out := []guardedTerm{{v, rel, bound, c.base}}
	for _, g := range c.guarded {
		// Nested guards on the same variable are rare; approximate by
		// keeping the inner guard (conservative for cost shape).
		out = append(out, g)
	}
	return out
}

func scaleGuards(gs []guardedTerm, p float64) []guardedTerm {
	out := make([]guardedTerm, 0, len(gs))
	for _, g := range gs {
		out = append(out, guardedTerm{g.loopVar, g.rel, g.bound, g.poly.Scale(p)})
	}
	return out
}

func negateRel(rel source.BinKind) source.BinKind {
	switch rel {
	case source.BinLE:
		return source.BinGT
	case source.BinLT:
		return source.BinGE
	case source.BinGE:
		return source.BinLT
	case source.BinGT:
		return source.BinLE
	case source.BinEQ:
		return source.BinNE
	default:
		return source.BinEQ
	}
}

// loopIndexCond matches `v REL e` (or `e REL v`) where v is an
// enclosing loop variable and e is invariant.
func (e *Estimator) loopIndexCond(cond source.Expr, loops []LoopCtx) (string, source.BinKind, symexpr.Poly, bool) {
	b, ok := cond.(*source.BinExpr)
	if !ok || !b.Kind.IsRelational() {
		return "", 0, symexpr.Poly{}, false
	}
	isLoopVar := func(x source.Expr) (string, bool) {
		v, ok := x.(*source.VarRef)
		if !ok {
			return "", false
		}
		for _, lc := range loops {
			if lc.Var == v.Name {
				return v.Name, true
			}
		}
		return "", false
	}
	loopVarNames := map[string]bool{}
	for _, lc := range loops {
		loopVarNames[lc.Var] = true
	}
	invariant := func(x source.Expr) bool {
		used := map[string]bool{}
		collectVarNames(x, used)
		for v := range used {
			if loopVarNames[v] {
				return false
			}
		}
		return true
	}
	if v, ok := isLoopVar(b.L); ok && invariant(b.R) {
		return v, b.Kind, e.exprPoly(b.R, nil), true
	}
	if v, ok := isLoopVar(b.R); ok && invariant(b.L) {
		return v, swapRel(b.Kind), e.exprPoly(b.L, nil), true
	}
	return "", 0, symexpr.Poly{}, false
}

func swapRel(rel source.BinKind) source.BinKind {
	switch rel {
	case source.BinLE:
		return source.BinGE
	case source.BinLT:
		return source.BinGT
	case source.BinGE:
		return source.BinLE
	case source.BinGT:
		return source.BinLT
	default:
		return rel
	}
}

func collectVarNames(e source.Expr, out map[string]bool) {
	switch x := e.(type) {
	case *source.VarRef:
		out[x.Name] = true
	case *source.ArrayRef:
		out[x.Name] = true
		for _, ix := range x.Idx {
			collectVarNames(ix, out)
		}
	case *source.BinExpr:
		collectVarNames(x.L, out)
		collectVarNames(x.R, out)
	case *source.UnExpr:
		collectVarNames(x.X, out)
	case *source.IntrinsicCall:
		for _, a := range x.Args {
			collectVarNames(a, out)
		}
	}
}

// modProb recognizes mod(expr, c) REL k conditions with constant c, k:
// probability 1/c for .eq., (c−1)/c for .ne.
func (e *Estimator) modProb(cond source.Expr) (float64, bool) {
	b, ok := cond.(*source.BinExpr)
	if !ok || (b.Kind != source.BinEQ && b.Kind != source.BinNE) {
		return 0, false
	}
	m, ok := b.L.(*source.IntrinsicCall)
	if !ok || m.Name != "mod" {
		return 0, false
	}
	c, ok := e.tbl.IntConst(m.Args[1])
	if !ok || c <= 0 {
		return 0, false
	}
	if _, ok := e.tbl.IntConst(b.R); !ok {
		return 0, false
	}
	p := 1 / float64(c)
	if b.Kind == source.BinNE {
		p = 1 - p
	}
	return p, true
}

// exprPoly converts an integer expression into a performance-expression
// polynomial: foldable parts become constants, unknown scalars become
// variables, everything else becomes a registered opaque unknown.
func (e *Estimator) exprPoly(x source.Expr, loopVars []string) symexpr.Poly {
	if x == nil {
		return symexpr.Zero()
	}
	if c, ok := e.tbl.FoldConst(x); ok {
		return symexpr.Const(c)
	}
	switch v := x.(type) {
	case *source.VarRef:
		e.noteVar(symexpr.Var(v.Name), "bound", v.Name)
		return symexpr.NewVar(symexpr.Var(v.Name))
	case *source.UnExpr:
		if v.Neg {
			return e.exprPoly(v.X, loopVars).Neg()
		}
	case *source.BinExpr:
		switch v.Kind {
		case source.BinAdd:
			return e.exprPoly(v.L, loopVars).Add(e.exprPoly(v.R, loopVars))
		case source.BinSub:
			return e.exprPoly(v.L, loopVars).Sub(e.exprPoly(v.R, loopVars))
		case source.BinMul:
			return e.exprPoly(v.L, loopVars).Mul(e.exprPoly(v.R, loopVars))
		case source.BinDiv:
			if c, ok := e.tbl.FoldConst(v.R); ok && c != 0 {
				return e.exprPoly(v.L, loopVars).Scale(1 / c)
			}
			if vr, ok := v.R.(*source.VarRef); ok {
				e.noteVar(symexpr.Var(vr.Name), "bound", vr.Name)
				return e.exprPoly(v.L, loopVars).MulVar(symexpr.Var(vr.Name), -1)
			}
		case source.BinPow:
			if k, ok := e.tbl.IntConst(v.R); ok && k >= 0 && k <= 8 {
				return e.exprPoly(v.L, loopVars).Pow(int(k))
			}
		}
	case *source.IntrinsicCall:
		// mod(x, c) with constant c in a bound (e.g. the red-black
		// `do i = 2+mod(j,2), …, 2`): over the iterations of the outer
		// loop its mean is (c−1)/2, the right value to aggregate with.
		if v.Name == "mod" && len(v.Args) == 2 {
			if c, ok := e.tbl.IntConst(v.Args[1]); ok && c > 0 {
				return symexpr.Const(float64(c-1) / 2)
			}
		}
	}
	u := e.freshVar("opaque", source.ExprString(x))
	return symexpr.NewVar(u)
}

func (e *Estimator) noteVar(v symexpr.Var, kind, desc string) {
	if e.logging {
		// Log the attempt before deduplication: a cached nest must
		// replay every registration it would perform live, because the
		// seen-set it replays against differs per traversal.
		e.events = append(e.events, regEvent{v: v, kind: kind, desc: desc})
	}
	if e.seen[v] {
		return
	}
	e.seen[v] = true
	e.unknowns = append(e.unknowns, Unknown{Var: v, Kind: kind, Desc: desc})
}

func (e *Estimator) freshVar(kind, desc string) symexpr.Var {
	e.fresh++
	v := symexpr.Var(fmt.Sprintf("$%s%d", kind[:1], e.fresh))
	if e.logging {
		e.events = append(e.events, regEvent{fresh: true, v: v, kind: kind, desc: desc})
	}
	e.unknowns = append(e.unknowns, Unknown{Var: v, Kind: kind, Desc: desc})
	e.seen[v] = true
	return v
}
