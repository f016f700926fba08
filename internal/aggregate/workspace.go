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
// table, and a Tetris scratch. A restructuring search gives each of its
// workers one for the life of the search, so pricing a candidate grows
// no translator table and no placement array from empty. Pricing
// through a workspace gives the same result as pricing without one.
//
// A workspace serves one pricing at a time, and a pricing must be done
// before the next one through the same workspace starts.
type Workspace struct {
	trans *lower.Translator
	fma   bool // the HasFMA trans lowers for
	tet   tetris.Scratch
}

var workspacePool = sync.Pool{New: func() any { return new(Workspace) }}

// AcquireWorkspace takes a workspace from a pool. Give it back with
// Release once the pricings through it are done.
func AcquireWorkspace() *Workspace { return workspacePool.Get().(*Workspace) }

// Release returns w to the pool; w must not be used afterwards.
func (w *Workspace) Release() { workspacePool.Put(w) }

// PriceIncremental is the package PriceIncremental, lowering with w's
// translator and placing blocks in w's Tetris scratch. A nil w prices
// as the package function does.
func (w *Workspace) PriceIncremental(p *source.Program, changedPaths [][]int, caches Caches, tbl *sem.Table, m *machine.Machine, opt Options) (Result, error) {
	return priceIncremental(w, p, changedPaths, caches, tbl, m, opt)
}

// translator returns w's translator bound to tbl for lowering on m,
// building it on first use or when m's HasFMA differs from the one it
// was built for (the only machine field lowering reads).
func (w *Workspace) translator(tbl *sem.Table, m *machine.Machine) *lower.Translator {
	fma := m.Compiled().HasFMA()
	if w.trans == nil || w.fma != fma {
		w.trans, w.fma = lower.New(tbl, m, lower.DefaultOptions()), fma
	} else {
		w.trans.Reset(tbl)
	}
	return w.trans
}

// Tetris invocation counters: every placement of a block into the
// functional bins goes through these wrappers so the nest cache can
// report how much estimation work a prediction actually performed.
// An estimator with a workspace places in its Tetris scratch; one
// without calls the package functions, which take a pooled one.

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
	if e.ws != nil {
		return e.ws.tet.EstimateCost(e.m, b, tetris.Options{})
	}
	return tetris.EstimateCost(e.m, b, tetris.Options{})
}

func (e *Estimator) tetShape(b *ir.Block) (tetris.Result, error) {
	e.countTetris()
	if e.ws != nil {
		return e.ws.tet.Estimate(e.m, b, tetris.Options{})
	}
	return tetris.Estimate(e.m, b, tetris.Options{})
}

func (e *Estimator) tetSteadyState(b *ir.Block) (float64, error) {
	return e.tetSteadyStateChained(b, nil)
}

func (e *Estimator) tetSteadyStateChained(b *ir.Block, chain map[ir.Reg]ir.Reg) (float64, error) {
	e.countTetris()
	var per float64
	var err error
	if e.ws != nil {
		per, _, err = e.ws.tet.SteadyStateChained(e.m, b, tetris.Options{}, steadyStateDrops, chain)
	} else {
		per, _, err = tetris.SteadyStateChained(e.m, b, tetris.Options{}, steadyStateDrops, chain)
	}
	return per, err
}
