package aggregate

import (
	"sync"

	"perfpredict/internal/ir"
	"perfpredict/internal/lower"
	"perfpredict/internal/machine"
	"perfpredict/internal/sem"
	"perfpredict/internal/source"
	"perfpredict/internal/tetris"
)

// Workspace is the pricing scratch that one goroutine reuses across the
// estimators it runs in turn: a translator, rebound to each program's
// table, and a Tetris scratch. Every pricing runs through one. A
// restructuring search gives each of its workers one for the life of
// the search, so pricing a candidate grows no translator table and no
// placement array from empty; any other pricing takes one from a pool
// for the call. A zero Workspace is ready to use, and which workspace
// prices a program never changes the result.
//
// A workspace serves one pricing at a time, and a pricing must be done
// before the next one through the same workspace starts.
type Workspace struct {
	trans *lower.Translator
	tet   tetris.Scratch
	// names is the key builders' scratch set of referenced identifiers
	// (see nameSet), kept warm across the workspace's pricings.
	names map[string]bool
}

var workspacePool = sync.Pool{New: func() any { return new(Workspace) }}

// AcquireWorkspace takes a workspace from a pool. Give it back with
// Release once the pricings through it are done.
func AcquireWorkspace() *Workspace { return workspacePool.Get().(*Workspace) }

// Release returns w to the pool; w must not be used afterwards. A
// pooled workspace keeps its storage but no AST node, so it keeps no
// program alive.
func (w *Workspace) Release() {
	if w.trans != nil {
		w.trans.Unbind()
	}
	workspacePool.Put(w)
}

// PriceIncremental is the package PriceIncremental, lowering with w's
// translator and placing blocks in w's Tetris scratch. A nil w takes a
// workspace from the pool for the call, as the package function does.
func (w *Workspace) PriceIncremental(p *source.Program, changedPaths [][]int, caches Caches, tbl *sem.Table, m *machine.Machine, opt Options) (Result, error) {
	e := NewWithCaches(tbl, m, opt, caches)
	e.ws, e.changed = w, changedPaths
	return e.Program(p)
}

// Translator returns w's translator bound to tbl for lowering on m,
// building it on first use. A lowering through it holds until the next
// pass through w.
func (w *Workspace) Translator(tbl *sem.Table, m *machine.Machine) *lower.Translator {
	if w.trans == nil {
		w.trans = lower.New(tbl, m, lower.DefaultOptions())
	} else {
		w.trans.Reset(tbl, m)
	}
	return w.trans
}

// dropWorkspace gives a pooled workspace back and forgets the
// translator bound from it.
func (e *Estimator) dropWorkspace() {
	e.ws.Release()
	e.ws, e.trans = nil, nil
}

// Tetris invocation counters: every placement of a block into the
// functional bins goes through these wrappers, in the workspace's
// Tetris scratch, so the nest cache can report how much estimation
// work a prediction actually performed.

func (e *Estimator) countTetris() {
	if e.nc != nil {
		e.nc.tetris.Add(1)
	}
}

// tetEstimate prices a block for its cost alone (Cost, Start, End);
// tetShape also returns the cost-block shape, which only the branch
// shape tests read.
func (e *Estimator) tetEstimate(b *ir.Block) (tetris.Result, error) {
	e.countTetris()
	return e.ws.tet.EstimateCost(e.m, b, tetris.Options{})
}

func (e *Estimator) tetShape(b *ir.Block) (tetris.Result, error) {
	e.countTetris()
	return e.ws.tet.Estimate(e.m, b, tetris.Options{})
}

func (e *Estimator) tetSteadyState(b *ir.Block) (float64, error) {
	return e.tetSteadyStateChained(b, nil)
}

func (e *Estimator) tetSteadyStateChained(b *ir.Block, chain map[ir.Reg]ir.Reg) (float64, error) {
	e.countTetris()
	per, _, err := e.ws.tet.SteadyStateChained(e.m, b, tetris.Options{}, steadyStateDrops, chain)
	return per, err
}
