package aggregate

import (
	"sort"
	"strings"

	"perfpredict/internal/lower"
	"perfpredict/internal/machine"
	"perfpredict/internal/sem"
	"perfpredict/internal/source"
	"perfpredict/internal/symexpr"
	"perfpredict/internal/tetris"
)

// Caches bundles the memoization layers an estimator can share: the
// straight-line segment cache and the loop-nest cost cache, shared
// across program variants, and the lowering memo, shared across the
// machines one program is priced on. A layer exists where a caller
// shares it; nil means none.
type Caches struct {
	Seg  *SegCache
	Nest *NestCache
	// Lower is shared only by estimators pricing the same parsed
	// program (it keys on AST identity); a design-space sweep passes
	// one per kernel to every lattice cell.
	Lower *LowerMemo
	// Nodes memoises statement digests for the nest, segment and shape
	// keys. Like Lower it keys on AST identity, so its lifetime is one
	// unit of work: xform.SearchCtx installs a fresh one per search.
	// Nil hashes every key from scratch.
	Nodes *source.NodeMemo
}

// NewWithCaches creates an estimator sharing the given cache layers. A
// nil Seg disables segment caching; a nil Nest disables nest-level
// caching (the estimator behaves exactly like NewWithCache); a nil
// Lower lowers through the workspace's translator.
//
// The concurrency contract of NewWithCache extends to the nest cache
// and the lowering memo: all three may be shared by estimators on
// different goroutines, and predictions remain byte-identical to
// serial, cache-less runs.
func NewWithCaches(tbl *sem.Table, m *machine.Machine, opt Options, caches Caches) *Estimator {
	e := NewWithCache(tbl, m, opt, caches.Seg)
	if caches.Lower != nil {
		e.lowered = caches.Lower
	}
	e.nc = caches.Nest
	e.nodes = caches.Nodes
	return e
}

// PriceIncremental prices a program against shared caches, treating
// changedPaths as a hint naming the statement paths (in the xform.Path
// convention: indices descending through DO-loop bodies) that differ
// from previously priced variants. Loop nests on or above a changed
// path skip their cache probe — they are known dirty — while every
// other nest is looked up and, on a hit, spliced from its cached
// polynomials without re-lowering or re-estimating.
//
// The hint is advisory only: correctness comes from the structural
// fingerprints in the cache keys, so stale, empty, or wrong paths can
// cost hit-rate but can never change a result. The returned Result is
// byte-identical to a full re-pricing by New(tbl, m, opt).Program.
func PriceIncremental(p *source.Program, changedPaths [][]int, caches Caches, tbl *sem.Table, m *machine.Machine, opt Options) (Result, error) {
	return (*Workspace)(nil).PriceIncremental(p, changedPaths, caches, tbl, m, opt)
}

// optionsFingerprint hashes everything besides the program that a
// cached cost depends on: the machine *content* fingerprint (unit
// inventory, dispatch width, flags, and the whole cost table — never
// just the name, so same-named targets with different tables cannot
// alias) and the external-library table.
// TestOptionsFingerprintCoversEveryField fails when an options field
// is added without being mixed here.
func optionsFingerprint(machFP source.Fingerprint, opt Options) source.Fingerprint {
	fp := machFP.MixString("options/v3")
	names := make([]string, 0, len(opt.Library))
	for n := range opt.Library {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		ent := opt.Library[n]
		fp = fp.MixString(n).
			MixString(strings.Join(ent.Params, ",")).
			MixString(ent.Cost.String())
	}
	return fp
}

// regEvent is one unknown-variable registration performed while
// pricing a nest. Replaying the log against another estimator
// reproduces its effect exactly: named events re-attempt noteVar (so
// deduplication happens against the *current* seen-set, as a live
// traversal would), and fresh events allocate a new fresh variable
// whose name replaces the recorded one in the cached polynomials.
type regEvent struct {
	fresh bool
	v     symexpr.Var
	kind  string
	desc  string
}

// nestEntry is one relocatable cached nest cost: the compositional
// cost polynomials plus everything the pricing did to estimator state
// (hoisted one-time costs in order, unknown registrations in order).
type nestEntry struct {
	base    symexpr.Poly
	entry   symexpr.Poly
	mem     symexpr.Poly
	guarded []guardedTerm
	pres    []float64
	events  []regEvent
}

// recMark delimits the estimator-state suffix produced while pricing
// one nest.
type recMark struct {
	pre int
	ev  int
}

func (e *Estimator) mark() recMark {
	return recMark{pre: len(e.preVals), ev: len(e.events)}
}

// captureNest packages the pricing of one nest (its cost plus the
// estimator-state suffix since mark) into a relocatable entry.
func (e *Estimator) captureNest(m recMark, c cost) *nestEntry {
	ent := &nestEntry{
		base:   c.base,
		entry:  c.entry,
		mem:    c.mem,
		pres:   append([]float64(nil), e.preVals[m.pre:]...),
		events: append([]regEvent(nil), e.events[m.ev:]...),
	}
	if len(c.guarded) > 0 {
		ent.guarded = append([]guardedTerm(nil), c.guarded...)
	}
	return ent
}

// splice replays a cached nest entry against the current estimator
// state: one-time costs are re-applied in order, unknown registrations
// are replayed (named ones dedup against the current seen-set; fresh
// ones draw new names from the current counter), and the cached
// polynomials are renamed to the freshly drawn names. The result is
// exactly what pricing the nest live would have produced.
func (e *Estimator) splice(ent *nestEntry) cost {
	for _, v := range ent.pres {
		e.addPre(v)
	}
	var ren map[symexpr.Var]symexpr.Var
	for _, ev := range ent.events {
		if !ev.fresh {
			e.noteVar(ev.v, ev.kind, ev.desc)
			continue
		}
		nv := e.freshVar(ev.kind, ev.desc)
		if nv != ev.v {
			if ren == nil {
				ren = map[symexpr.Var]symexpr.Var{}
			}
			ren[ev.v] = nv
		}
	}
	c := cost{base: ent.base, entry: ent.entry, mem: ent.mem}
	if len(ent.guarded) > 0 {
		c.guarded = append([]guardedTerm(nil), ent.guarded...)
	}
	if ren != nil {
		c.base = symexpr.RenameVars(c.base, ren)
		c.entry = symexpr.RenameVars(c.entry, ren)
		c.mem = symexpr.RenameVars(c.mem, ren)
		for i := range c.guarded {
			c.guarded[i].bound = symexpr.RenameVars(c.guarded[i].bound, ren)
			c.guarded[i].poly = symexpr.RenameVars(c.guarded[i].poly, ren)
		}
	}
	return c
}

// loopUnit prices one loop nest through the nest cache: a hit splices
// the cached cost, a miss prices the nest live and stores the capture.
// path is this loop's statement path (nil when the nest sits in a
// region paths cannot address, e.g. inside an IF branch).
func (e *Estimator) loopUnit(l *source.DoLoop, loops []LoopCtx, path []int) (cost, error) {
	if e.nc == nil || e.prog == nil {
		return e.loop(l, loops, path)
	}
	if e.nc.disabled {
		e.nc.direct.Add(1)
		return e.loop(l, loops, path)
	}
	key := e.nestKey(l, loops)
	if e.pathDirty(path) {
		e.nc.direct.Add(1)
	} else if ent, ok := e.nc.entries.Get(key); ok {
		return e.splice(ent), nil
	}
	m := e.mark()
	c, err := e.loop(l, loops, path)
	if err != nil {
		return cost{}, err
	}
	e.nc.entries.Put(key, e.captureNest(m, c))
	return c, nil
}

// nestKey builds the cache key of a nest: its structural fingerprint
// mixed with the pricing context it can observe — the machine and
// library fingerprint, the enclosing loop variables the nest
// references (in order; unreferenced enclosing variables are provably
// invisible to lowering and aggregation), and the declarations,
// constants, and distribution directives of referenced names.
func (e *Estimator) nestKey(l *source.DoLoop, loops []LoopCtx) source.Fingerprint {
	names := e.nameSet()
	source.StmtNames(l, names)
	fp := e.keyFP.Mix(e.nodes.Stmt(l))
	for _, lc := range loops {
		if names[lc.Var] {
			fp = fp.MixString(lc.Var)
		}
	}
	// A nest priced at the top level of a memory-active machine carries
	// the hierarchy charge; the identical subtree nested inside another
	// loop does not. Mark root pricings so the two can never alias.
	if len(loops) == 0 && e.c.Memory().Active() {
		fp = fp.MixString("memroot")
	}
	return fp.Mix(source.FingerprintEnvFor(e.prog, names))
}

// pathDirty reports whether path is on or above one of the changed
// paths — i.e. the subtree at path contains a change, so its cache
// probe would be a guaranteed miss. Siblings and descendants of a
// change are not dirty: they are looked up normally, which is how
// shifted-but-unchanged nests and untouched inner nests hit.
func (e *Estimator) pathDirty(path []int) bool {
	if path == nil || len(e.changed) == 0 {
		return false
	}
	for _, c := range e.changed {
		if len(path) > len(c) {
			continue
		}
		dirty := true
		for i := range path {
			if c[i] != path[i] {
				dirty = false
				break
			}
		}
		if dirty {
			return true
		}
	}
	return false
}

// childPath extends a statement path by one index; nil (unaddressable
// region) stays nil.
func childPath(path []int, i int) []int {
	if path == nil {
		return nil
	}
	np := make([]int, len(path)+1)
	copy(np, path)
	np[len(path)] = i
	return np
}

// addPre records one hoisted (one-time) cost contribution. The values
// are folded into a polynomial by prePoly at the end, reproducing the
// exact AddConst chain a live traversal performs.
func (e *Estimator) addPre(v float64) { e.preVals = append(e.preVals, v) }

// prePoly folds the recorded one-time costs, in order, into the
// OneTime polynomial.
func (e *Estimator) prePoly() symexpr.Poly { return symexpr.ConstSum(e.preVals) }

// auxActive reports whether the sub-nest memo tables (loop control,
// shapes, bounds) may be used: they key on the whole-program
// environment fingerprint, so they require an active cache and a
// program-level pricing.
func (e *Estimator) auxActive() bool {
	return e.nc != nil && !e.nc.disabled && e.prog != nil
}

// ctlBase prices the per-iteration loop-control block. The block is a
// fixed IR sequence, so its cost depends only on the machine: with an
// active cache it is computed once per search.
func (e *Estimator) ctlBase() (float64, error) {
	if e.nc != nil && !e.nc.disabled {
		if v, ok := e.nc.ctl.Get(e.keyFP); ok {
			return v, nil
		}
	}
	res, err := e.tetEstimate(lower.LoopOverhead())
	if err != nil {
		return 0, err
	}
	base := float64(res.Cost)
	if e.nc != nil && !e.nc.disabled {
		e.nc.ctl.Put(e.keyFP, base)
	}
	return base, nil
}

// shapeFor returns the cost-block shape of body's leading
// straight-line run under loopVars, keeping it in lead: the shape lead
// already holds, else one from the shape memo table (keyed by the
// run's structural fingerprint, the loop-variable context and the
// program environment), else the shape of lw, the run's lowering, or
// of the run lowered now when lw is nil.
func (e *Estimator) shapeFor(body []source.Stmt, loopVars []string, lead *leadShape, lw *lower.Lowered) (tetris.CostBlock, bool) {
	if !lead.found {
		lead.shapeEntry, lead.found = e.runShape(body[:source.RunEnd(body, 0, nil)], loopVars, lw), true
	}
	return lead.shape, lead.ok
}

func (e *Estimator) runShape(run []source.Stmt, loopVars []string, lw *lower.Lowered) (ent shapeEntry) {
	if len(run) == 0 {
		return ent
	}
	var key source.Fingerprint
	aux := e.auxActive()
	if aux {
		key = mixVars(e.auxFP.Mix(e.nodes.Stmts(run)), loopVars)
		if ent, ok := e.nc.shapes.Get(key); ok {
			return ent
		}
	}
	if lw == nil {
		var err error
		if lw, err = e.lowerVia(lowerSegment, run[0], run, loopVars); err != nil {
			return ent
		}
	}
	if len(lw.Body.Instrs) > 0 {
		if res, err := e.tetShape(lw.Body); err == nil {
			ent = shapeEntry{shape: res.Shape, ok: true}
		}
	}
	if aux {
		e.nc.shapes.Put(key, ent)
	}
	return ent
}

// boundExprCost prices one loop-bound expression (its iterative and
// hoisted parts) behind the bounds memo table.
func (e *Estimator) boundExprCost(b source.Expr, loopVars []string) (boundsEntry, error) {
	var key source.Fingerprint
	aux := e.auxActive()
	if aux {
		key = mixVars(e.auxFP.Mix(source.FingerprintExpr(b)), loopVars)
		if ent, ok := e.nc.bounds.Get(key); ok {
			return ent, nil
		}
	}
	lw, err := e.lowerVia(lowerBound, b, nil, loopVars)
	if err != nil {
		return boundsEntry{}, err
	}
	var ent boundsEntry
	if len(lw.Body.Instrs) > 0 {
		res, err := e.tetEstimate(lw.Body)
		if err != nil {
			return boundsEntry{}, err
		}
		ent.iter = float64(res.Cost)
		ent.hasIter = true
	}
	if len(lw.Pre.Instrs) > 0 {
		res, err := e.tetEstimate(lw.Pre)
		if err != nil {
			return boundsEntry{}, err
		}
		ent.pre = float64(res.Cost)
		ent.hasPre = true
	}
	if aux {
		e.nc.bounds.Put(key, ent)
	}
	return ent, nil
}
