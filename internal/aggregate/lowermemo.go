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
// fixed).
// Identity keys make the memo valid only while the ASTs it was filled
// from are alive and unchanged, so its lifetime is one unit of work —
// a sweep, or one estimator — and it must not be folded into the
// long-lived SegCache: a server-wide cache would retain the lowered IR
// of every program it ever priced.
//
// A LowerMemo is safe for concurrent use. Concurrent misses on one key
// may both lower; the results differ at most in register numbering,
// which pricing does not observe, and the first stored entry wins.
// Stored IR is read-only.
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
func NewLowerMemo() *LowerMemo { return &LowerMemo{} }

// Stats reports hits and misses so far; misses count the segments
// actually lowered.
func (c *LowerMemo) Stats() (hits, misses int) {
	return int(c.hits.Load()), int(c.misses.Load())
}

// get returns the lowering k names (for a segment, of stmts) under
// loopVars, lowering it with the translator tr returns on a miss.
// Lowering errors are not memoized.
func (c *LowerMemo) get(tr func() *lower.Translator, k lowerKey, stmts []source.Stmt, loopVars []string) (*lower.Lowered, error) {
	c.mu.RLock()
	lw := c.find(k, stmts, loopVars)
	c.mu.RUnlock()
	if lw != nil {
		c.hits.Add(1)
		return lw, nil
	}
	c.misses.Add(1)
	var err error
	switch k.kind {
	case lowerSegment:
		lw, err = tr().Body(stmts, loopVars)
	case lowerCondition:
		lw, err = tr().Condition(k.node.(source.Expr), loopVars)
	default:
		lw, err = tr().ExprOnly(k.node.(source.Expr), loopVars)
	}
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev := c.find(k, stmts, loopVars); prev != nil {
		return prev, nil // a concurrent miss stored it first
	}
	if c.entries == nil {
		c.entries = map[lowerKey][]lowerEntry{}
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

// lowerBody lowers a straight-line run through the estimator's memo.
func (e *Estimator) lowerBody(stmts []source.Stmt, loopVars []string) (*lower.Lowered, error) {
	return e.lowerVia(lowerSegment, stmts[0], stmts, loopVars)
}

// lowerCondition lowers a branch condition through the memo.
func (e *Estimator) lowerCondition(cond source.Expr, loopVars []string) (*lower.Lowered, error) {
	return e.lowerVia(lowerCondition, cond, nil, loopVars)
}

// lowerBound lowers a loop-bound expression through the memo.
func (e *Estimator) lowerBound(x source.Expr, loopVars []string) (*lower.Lowered, error) {
	return e.lowerVia(lowerBound, x, nil, loopVars)
}

// lowerVia looks a lowering up in the estimator's memo, creating a
// private memo on first use when none was shared.
func (e *Estimator) lowerVia(kind lowerKind, node any, stmts []source.Stmt, loopVars []string) (*lower.Lowered, error) {
	if e.lowered == nil {
		e.lowered = NewLowerMemo()
	}
	k := lowerKey{tbl: e.tbl, kind: kind, node: node, fma: e.c.HasFMA()}
	return e.lowered.get(e.translator, k, stmts, loopVars)
}

// translator returns the estimator's lowering translator, creating it
// on first use: an estimator whose lowerings all hit a shared memo
// never builds one.
func (e *Estimator) translator() *lower.Translator {
	if e.trans == nil {
		e.trans = lower.New(e.tbl, e.m, lower.DefaultOptions())
	}
	return e.trans
}
