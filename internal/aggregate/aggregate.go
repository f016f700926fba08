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

// Options configure aggregation. A pricing is a function of the
// program, the target and the library table alone: the back-end
// imitations and the steady-state and branch rules are the
// predictor's fixed behaviour, not per-call settings.
type Options struct {
	// Library is the external-library cost table (§3.5): calls to
	// routines listed here are priced by substituting the actual
	// parameters into the routine's stored performance expression.
	Library LibraryTable
}

// DefaultOptions returns the zero Options: no library table.
func DefaultOptions() Options { return Options{} }

// steadyStateDrops is how many times an innermost block is dropped
// into the bins to estimate its per-iteration cost (the paper's second
// unrolling estimator), letting consecutive iterations overlap.
const steadyStateDrops = 4

// closeBranchTol is the §3.3.2 close-branch tolerance: when the two
// branch costs are within this relative distance, the reaching
// probability is dropped ("if the two branches … have performance
// estimations that are very close, the reaching probability … can be
// ignored").
const closeBranchTol = 0.10

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

// DefaultUnknown is the value a filled evaluation point (see EvalPoint)
// gives a bound or opaque unknown the caller left out.
const DefaultUnknown = 100

// EvalPoint turns a priced result's unknowns plus the caller's values
// into the assignment its expressions are evaluated at. The caller's
// values win; a missing probability is 0.5; a missing bound or opaque
// unknown is DefaultUnknown when fill is set and is otherwise left
// unset, so evaluating an expression over it is an error. Every
// evaluation of a priced program — EvalAt, Sensitivity, the
// restructuring search's ranking, explain and explore — goes through
// here.
func EvalPoint[K ~string](unknowns []Unknown, values map[K]float64, fill bool) map[symexpr.Var]float64 {
	assign := make(map[symexpr.Var]float64, len(values)+len(unknowns))
	for k, v := range values {
		assign[symexpr.Var(k)] = v
	}
	for _, u := range unknowns {
		if _, ok := assign[u.Var]; ok {
			continue
		}
		switch {
		case u.Kind == "probability":
			assign[u.Var] = 0.5
		case fill:
			assign[u.Var] = DefaultUnknown
		}
	}
	return assign
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
// the library table, the segment's statements, the enclosing
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
// use. Shard tables are created lazily on first store.
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

	trans    *lower.Translator // ws's, bound on the first lowering miss; see pass
	ws       *Workspace        // the pricing's workspace; see price
	passes   int               // translator passes run
	preVals  []float64
	unknowns []Unknown
	seen     map[symexpr.Var]bool // registered unknowns; Program and Stmts make it
	fresh    int
	cache    *SegCache
	lowered  *LowerMemo
	// nodes memoises statement digests (nil hashes from scratch).
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
	keyFP   source.Fingerprint // machine content + library table
	auxFP   source.Fingerprint // keyFP + whole-program environment
}

// New creates an estimator with no cache layer.
//
// An Estimator itself is single-goroutine state; to predict
// concurrently, give each goroutine its own Estimator. They may share
// one SegCache (see NewWithCache).
func New(tbl *sem.Table, m *machine.Machine, opt Options) *Estimator {
	return NewWithCache(tbl, m, opt, nil)
}

// NewWithCache creates an estimator sharing a segment cache. A nil
// cache means none: the estimator neither keys nor stores segments,
// since a cache that only one pricing reads would never hit. It lowers
// through its workspace's translator (see NewWithCaches to share a
// memo).
//
// Concurrency contract: the SegCache is safe to share between
// estimators running on different goroutines — cached segment costs
// depend only on the segment key, so concurrent fills are idempotent
// and predictions are byte-identical to serial runs. The Estimator
// returned here, like the one from New, must not itself be used from
// more than one goroutine at a time.
func NewWithCache(tbl *sem.Table, m *machine.Machine, opt Options, cache *SegCache) *Estimator {
	m = m.Sealed()
	c := m.Compiled()
	return &Estimator{
		tbl:   tbl,
		m:     m,
		c:     c,
		opt:   opt,
		cache: cache,
		keyFP: optionsFingerprint(c.Fingerprint(), opt),
	}
}

// Program aggregates the whole program body.
func (e *Estimator) Program(p *source.Program) (Result, error) {
	e.events = e.events[:0]
	e.prog = p
	e.logging = e.nc != nil && !e.nc.disabled
	if e.logging {
		e.auxFP = e.keyFP.Mix(source.FingerprintEnv(p))
	}
	return e.price(p.Body, nil, []int{})
}

// price aggregates list under loops through a workspace: the one the
// caller bound (see Workspace.PriceIncremental), else one taken from
// the pool for this call and given back, with its translator, when the
// call returns.
func (e *Estimator) price(list []source.Stmt, loops []LoopCtx, path []int) (Result, error) {
	if e.ws == nil {
		e.ws = AcquireWorkspace()
		defer e.dropWorkspace()
	}
	e.preVals = e.preVals[:0]
	e.unknowns = nil
	e.seen = map[symexpr.Var]bool{}
	c, err := e.stmts(list, loops, path, nil)
	if err != nil {
		return Result{}, err
	}
	return e.result(c), nil
}

// result totals a top-level cost.
func (e *Estimator) result(c cost) Result {
	pre := e.prePoly()
	total := c.base.Add(c.entry).Add(pre)
	for _, g := range c.guarded {
		// Guards that survive to the top level (no enclosing loop over
		// their variable) degrade to probability-like unknowns: keep
		// the term weighted by nothing — the guard variable is a free
		// unknown, so conservatively include the term fully.
		total = total.Add(g.poly)
	}
	return Result{Cost: total, OneTime: pre, Memory: c.mem, Unknowns: e.unknowns}
}

// Stmts aggregates a statement list under the given enclosing loops
// (outermost first). Exposed for per-fragment estimates. Fragments
// carry no program environment, so nest-level caching is suspended for
// the duration of the call.
func (e *Estimator) Stmts(stmts []source.Stmt, loops []LoopCtx) (Result, error) {
	savedProg, savedLogging, savedChanged := e.prog, e.logging, e.changed
	e.prog, e.logging, e.changed = nil, false, nil
	defer func() { e.prog, e.logging, e.changed = savedProg, savedLogging, savedChanged }()
	return e.price(stmts, loops, nil)
}

// LoopCtx describes one enclosing loop for fragment-level estimation.
type LoopCtx struct {
	Var  string
	Lb   symexpr.Poly
	Ub   symexpr.Poly
	Step int
}

// varsOf returns the variables of loops, outermost first.
func varsOf(loops []LoopCtx) []string {
	vars := make([]string, len(loops))
	for k, l := range loops {
		vars[k] = l.Var
	}
	return vars
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

// leadShape is the shape of a body's leading straight-line run, kept
// by the pricing that lowers the run, so the branch shape tests of
// loopOverhead and ifStmt need not lower it again (see shapeFor).
type leadShape struct {
	shapeEntry
	found bool
}

// stmts aggregates a statement list. path is the xform.Path-style
// address of the list (nil inside regions paths cannot address, such
// as IF branches); it positions loop nests for the nest cache. A
// non-nil lead receives the shape of the list's leading run when
// stmts lowers that run.
func (e *Estimator) stmts(list []source.Stmt, loops []LoopCtx, path []int, lead *leadShape) (cost, error) {
	total := cost{base: symexpr.Zero(), entry: symexpr.Zero()}
	i := 0
	loopVars := varsOf(loops)
	for i < len(list) {
		if j := source.RunEnd(list, i, e.isLibCall); j > i {
			if i > 0 || source.RunEnd(list, j, nil) > j {
				lead = nil // the shape tests probe the leading run, uncut by library calls
			}
			c, err := e.straight(list[i:j], loopVars, len(loops) > 0, lead)
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

// straight prices a straight-line segment. Inside loops the
// steady-state per-iteration cost is used (iterations overlap in the
// bins); the hoisted preheader cost accumulates into the one-time bin.
// Only an estimator with a segment cache keys the segment. A non-nil
// lead receives the segment's shape (see leadShape).
func (e *Estimator) straight(stmts []source.Stmt, loopVars []string, inLoop bool, lead *leadShape) (cost, error) {
	var key source.Fingerprint
	if e.cache != nil {
		key = e.segKey(stmts, loopVars, inLoop)
		if ent, ok := e.cache.c.Get(key); ok {
			e.addPre(ent.pre)
			return cost{base: symexpr.Const(ent.iter), entry: symexpr.Const(ent.entry)}, nil
		}
	}
	lw, err := e.lowerVia(lowerSegment, stmts[0], stmts, loopVars)
	if err != nil {
		return cost{}, err
	}
	if lead != nil {
		e.shapeFor(stmts, loopVars, lead, lw)
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
	case inLoop:
		// Register-promoted accumulators chain across iterations: the
		// steady-state drop must see the serial dependence.
		per, err := e.tetSteadyStateChained(lw.Body, lw.Chain())
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
		if len(blk.Instrs) == 0 {
			continue
		}
		res, err := e.tetEstimate(blk)
		if err != nil {
			return cost{}, err
		}
		ent.entry += float64(res.Cost)
	}
	if e.cache != nil {
		e.cache.c.Put(key, ent)
	}
	return cost{base: symexpr.Const(ent.iter), entry: symexpr.Const(ent.entry)}, nil
}

// segKey builds a segment-cache key. It starts from keyFP, the
// machine's content fingerprint mixed with the library table: a
// SegCache shared across targets (successive batches, multi-target
// searches) can only hit entries priced for a machine with the
// identical cost table — name and pointer identity play no part — and
// the identical library table.
// Lowering also reads the types, shapes and constants of the names the
// segment references, so their declarations are part of the key: the
// same statements over integer and real arrays price differently.
// Declarations of names the segment never mentions are left out, so a
// variant that only adds declarations still hits.
func (e *Estimator) segKey(stmts []source.Stmt, loopVars []string, inLoop bool) source.Fingerprint {
	fp := mixVars(e.keyFP.Mix(e.nodes.Stmts(stmts)), loopVars)
	if inLoop {
		fp = fp.MixUint64(1)
	} else {
		fp = fp.MixUint64(0)
	}
	names := e.nameSet()
	for _, s := range stmts {
		source.StmtNames(s, names)
	}
	return fp.Mix(source.FingerprintEnvFor(e.tbl.Program, names))
}

// mixVars folds a list of enclosing loop variables into fp.
func mixVars(fp source.Fingerprint, loopVars []string) source.Fingerprint {
	fp = fp.MixUint64(uint64(len(loopVars)))
	for _, v := range loopVars {
		fp = fp.MixString(v)
	}
	return fp
}

// nameSet returns the key builders' scratch name set, the workspace's,
// emptied. Only keyed pricings make it: a workspace that only served
// estimators without caches never does.
func (e *Estimator) nameSet() map[string]bool {
	if e.ws.names == nil {
		e.ws.names = map[string]bool{}
	} else {
		clear(e.ws.names)
	}
	return e.ws.names
}

// loop aggregates C(do v = lb, ub, step {B}) = C(lb)+C(ub)+C(step) +
// Σ_v (C(B(v)) + loop overhead) per §2.4.1. path positions the loop
// for nested nest-cache lookups (see loopUnit, the caching wrapper
// every caller goes through).
func (e *Estimator) loop(l *source.DoLoop, loops []LoopCtx, path []int) (cost, error) {
	loopVars := varsOf(loops)
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
			e.freshVar("opaque", "step "+source.ExprString(l.Step))
		}
	}
	if step < 0 {
		// Downward loop: normalize by swapping bounds.
		lbP, ubP = ubP, lbP
		step = -step
	}

	inner := append(append([]LoopCtx{}, loops...), LoopCtx{Var: l.Var, Lb: lbP, Ub: ubP, Step: step})
	var lead leadShape
	bodyCost, err := e.stmts(l.Body, inner, path, &lead)
	if err != nil {
		return cost{}, err
	}

	// Per-iteration loop control, partially hidden under the body
	// (branch shape test, §2.4.2).
	ctl, err := e.loopOverhead(l, loopVars, &lead)
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
// the body's shape where possible; lead is the body's (see leadShape).
func (e *Estimator) loopOverhead(l *source.DoLoop, loopVars []string, lead *leadShape) (float64, error) {
	base, err := e.ctlBase()
	if err != nil {
		return 0, err
	}
	// The back-branch is covered when the body keeps the non-FXU units
	// busy past the compare (shape test): approximate with the body's
	// first straight-line segment shape.
	if shape, ok := e.shapeFor(l.Body, append(loopVars, l.Var), lead, nil); ok {
		uncovered := tetris.BranchCovered(shape, int(base))
		return float64(uncovered), nil
	}
	return base, nil
}

// ifStmt aggregates C(if c then Bt else Bf) = C(c) + pt·C(Bt) +
// pf·C(Bf) + c_br (§2.4.1).
func (e *Estimator) ifStmt(s *source.IfStmt, loops []LoopCtx) (cost, error) {
	loopVars := varsOf(loops)
	condCost := symexpr.Zero()
	lw, err := e.lowerVia(lowerCondition, s.Cond, nil, loopVars)
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
	if len(loops) > 0 {
		// Repeated evaluations of the condition overlap like any other
		// straight-line block.
		per, err := e.tetSteadyState(lw.Body)
		if err != nil {
			return cost{}, err
		}
		condVal = per
	}
	condCost = condCost.AddConst(condVal)

	var thenLead, elseLead leadShape
	thenCost, err := e.stmts(s.Then, loops, nil, &thenLead)
	if err != nil {
		return cost{}, err
	}
	elseCost, err := e.stmts(s.Else, loops, nil, &elseLead)
	if err != nil {
		return cost{}, err
	}

	cbr := float64(e.c.BranchCost())
	// Branch-optimization shape test: a branch whose taken block keeps
	// the FXU ahead of the FP pipes hides (part of) the penalty.
	thenShape, thenShapeOK := e.shapeFor(s.Then, loopVars, &thenLead, nil)
	elseShape, elseShapeOK := e.shapeFor(s.Else, loopVars, &elseLead, nil)
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
	if tOK && eOK && len(thenCost.guarded)+len(elseCost.guarded) == 0 &&
		closeEnough(tb, eb) {
		out.base = out.base.AddConst((tb + eb) / 2)
		out.mem = thenCost.mem.Add(elseCost.mem).Scale(0.5)
		return out, nil
	}

	// Loop-index condition (§3.3.2): `v REL bound` (or `v±c REL
	// bound`) with v an enclosing loop variable and bound invariant →
	// exact iteration split.
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

// closeEnough reports whether a and b are within closeBranchTol of
// each other, relative to the larger magnitude.
func closeEnough(a, b float64) bool {
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return true
	}
	return math.Abs(a-b) <= closeBranchTol*m
}

func guardsFor(v string, rel source.BinKind, bound symexpr.Poly, c cost) []guardedTerm {
	// Nested guards on the same variable are rare; approximate by
	// keeping the inner guard (conservative for cost shape).
	return append([]guardedTerm{{v, rel, bound, c.base}}, c.guarded...)
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
// enclosing loop variable, possibly offset by an integer constant, and
// e is invariant.
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
		source.ExprNames(x, used)
		for v := range used {
			if loopVarNames[v] {
				return false
			}
		}
		return true
	}
	// loopOffset matches v, v+c, c+v or v−c: unrolling writes the
	// guards of a body's later copies so. `v+c REL b` splits at b−c.
	loopOffset := func(x source.Expr) (string, int64, bool) {
		if v, ok := isLoopVar(x); ok {
			return v, 0, true
		}
		o, ok := x.(*source.BinExpr)
		if !ok || (o.Kind != source.BinAdd && o.Kind != source.BinSub) {
			return "", 0, false
		}
		if v, ok := isLoopVar(o.L); ok {
			if c, ok := e.tbl.IntConst(o.R); ok {
				if o.Kind == source.BinSub {
					c = -c
				}
				return v, c, true
			}
		}
		if v, ok := isLoopVar(o.R); ok && o.Kind == source.BinAdd {
			if c, ok := e.tbl.IntConst(o.L); ok {
				return v, c, true
			}
		}
		return "", 0, false
	}
	bound := func(x source.Expr, c int64) symexpr.Poly {
		p := e.exprPoly(x, nil)
		if c != 0 {
			p = p.AddConst(float64(-c))
		}
		return p
	}
	if v, c, ok := loopOffset(b.L); ok && invariant(b.R) {
		return v, b.Kind, bound(b.R, c), true
	}
	if v, c, ok := loopOffset(b.R); ok && invariant(b.L) {
		return v, swapRel(b.Kind), bound(b.L, c), true
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
