package aggregate

import (
	"slices"
	"sync"
	"sync/atomic"

	"perfpredict/internal/lower"
	"perfpredict/internal/sem"
	"perfpredict/internal/source"
)

// LowerMemo memoizes lowering — the paper's operation specialization
// mapping, which is language dependent but architecture independent
// (§2.2) — of straight-line segments, branch conditions and loop
// bounds. Lowering reads the machine only through Machine.HasFMA, so
// one lowering serves every machine that agrees on that flag: a
// design-space sweep lowers each kernel once and prices the shared IR
// on every lattice cell.
//
// Entries are keyed by AST identity (every statement of a segment, or
// the expression node — pointers, never text), the enclosing loop
// variables, the symbol table and HasFMA (the lowering options are
// fixed). Identity keys hold only while the ASTs are alive and
// unchanged, so a memo lives for one sweep and stays out of the
// long-lived SegCache, which would retain the IR of every program a
// server priced.
//
// A LowerMemo is safe for concurrent use. Concurrent misses on one key
// may both lower; the results differ at most in register numbering,
// which pricing does not observe, and the first stored entry wins. The
// memo stores a read-only Clone of each pass (see lower.Lowered).
type LowerMemo struct {
	mu      sync.RWMutex
	entries map[lowerKey][]lowerEntry
	hits    atomic.Int64
	misses  atomic.Int64
}

// lowerKey buckets lowerings by kind and node: a segment's first
// statement, or a condition or bound expression. A bucket's entries
// are told apart by their full statement and loop-variable lists.
type lowerKey struct {
	tbl  *sem.Table
	kind lowerKind
	node any
	fma  bool
}

// lowerKind selects the Translator entry point a memo entry came from.
type lowerKind uint8

const (
	lowerSegment   lowerKind = iota // Translator.Body
	lowerCondition                  // Translator.Condition
	lowerBound                      // Translator.ExprOnly
)

type lowerEntry struct {
	stmts    []source.Stmt
	loopVars []string
	lw       *lower.Lowered
}

// NewLowerMemo creates an empty lowering memo.
func NewLowerMemo() *LowerMemo { return &LowerMemo{entries: map[lowerKey][]lowerEntry{}} }

// Stats reports hits and misses so far; misses count the segments
// actually lowered.
func (c *LowerMemo) Stats() (hits, misses int) {
	return int(c.hits.Load()), int(c.misses.Load())
}

// get returns the lowering k names (for a segment, of stmts) under
// loopVars, lowering a clone with e's translator on a miss. Lowering
// errors are not memoized.
func (c *LowerMemo) get(e *Estimator, k lowerKey, stmts []source.Stmt, loopVars []string) (*lower.Lowered, error) {
	c.mu.RLock()
	lw := c.find(k, stmts, loopVars)
	c.mu.RUnlock()
	if lw != nil {
		c.hits.Add(1)
		return lw, nil
	}
	c.misses.Add(1)
	lw, err := e.pass(k, stmts, loopVars)
	if err != nil {
		return nil, err
	}
	lw = lw.Clone()
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev := c.find(k, stmts, loopVars); prev != nil {
		return prev, nil // a concurrent miss stored it first
	}
	c.entries[k] = append(c.entries[k], lowerEntry{
		stmts:    slices.Clone(stmts),
		loopVars: slices.Clone(loopVars),
		lw:       lw,
	})
	return lw, nil
}

// find returns the stored lowering of stmts under loopVars, or nil.
// The caller holds c.mu.
func (c *LowerMemo) find(k lowerKey, stmts []source.Stmt, loopVars []string) *lower.Lowered {
	for _, ent := range c.entries[k] {
		if slices.Equal(ent.stmts, stmts) && slices.Equal(ent.loopVars, loopVars) {
			return ent.lw
		}
	}
	return nil
}

// lowerVia lowers through the shared memo, or with the workspace's
// translator when none was shared: the result is then the translator's
// scratch, which the caller prices before lowering again.
func (e *Estimator) lowerVia(kind lowerKind, node any, stmts []source.Stmt, loopVars []string) (*lower.Lowered, error) {
	k := lowerKey{tbl: e.tbl, kind: kind, node: node, fma: e.c.HasFMA()}
	if e.lowered != nil {
		return e.lowered.get(e, k, stmts, loopVars)
	}
	return e.pass(k, stmts, loopVars)
}

// pass runs the translator pass k names, with the workspace's
// translator bound to the estimator's table on first use: an estimator
// whose lowerings all hit a shared memo binds none.
func (e *Estimator) pass(k lowerKey, stmts []source.Stmt, loopVars []string) (*lower.Lowered, error) {
	if e.trans == nil {
		e.trans = e.ws.Translator(e.tbl, e.m)
	}
	e.passes++
	switch k.kind {
	case lowerSegment:
		return e.trans.Body(stmts, loopVars)
	case lowerCondition:
		return e.trans.Condition(k.node.(source.Expr), loopVars)
	default:
		return e.trans.ExprOnly(k.node.(source.Expr), loopVars)
	}
}
