// Package explore is the design-space exploration engine: the
// paper's prediction model run backwards. Instead of predicting one
// program on one machine, a SpecTemplate (internal/machine) spans a
// lattice of concrete machine configurations, every kernel of a
// workload is batch-predicted on every cell (through the caller's
// segment-cost cache, when one is shared), and the configurations are
// reduced to a Pareto front over (hardware budget, per-kernel
// cost...). Each kernel is parsed, analyzed and lowered once per
// sweep — those layers do not depend on the machine — so a cell pays
// only for pricing. The template is compiled once per sweep
// (SpecTemplate.Compile), and each cell's machine is built inside the
// worker pool, by the worker that prices it, from the compiled
// template's shared cost table.
//
// Dominance is defined ONLY on the measured cost vector plus the
// template's declared hardware-budget scalar — never on a structural
// "more resources" ordering. Greedy list scheduling is not monotone
// in resources (Graham's anomaly: the fuzz corpus contains real
// programs that the model predicts SLOWER with one more pipe), so a
// bigger machine may be dominated by a smaller one, and pruning that
// presumed resource-monotonicity would be wrong. The invariant suite
// (internal/invariants.CheckExplore) and a pinned regression on the
// prog001.f/POWER1 counterexample gate exactly this property.
package explore

import (
	"context"
	"fmt"
	"sync/atomic"

	"perfpredict/internal/aggregate"
	"perfpredict/internal/machine"
	"perfpredict/internal/sem"
	"perfpredict/internal/source"
	"perfpredict/internal/workpool"
)

// Kernel is one workload member: an F-lite program whose predicted
// cost becomes one coordinate of every cell's cost vector.
type Kernel struct {
	// Name labels the kernel's coordinate in reports.
	Name string
	// Source is the F-lite program text.
	Source string
}

// Options tune a sweep.
type Options struct {
	// Workers bounds the cell-evaluation pool; <= 0 uses GOMAXPROCS.
	Workers int
	// Args assigns values to program unknowns when evaluating each
	// kernel's symbolic cost. Missing unknowns take the filled
	// evaluation point of aggregate.EvalPoint — the one the
	// transformation search and explain mode rank at — so a sweep
	// never fails on an unsupplied loop bound.
	Args map[string]float64
	// Target, when positive, asks for the cheapest-budget config whose
	// total cost meets it (Result.Best). Zero means "no target":
	// Best is the fastest config instead.
	Target float64
	// SegCache is a straight-line segment cache the caller shares
	// across sweeps or with the serving endpoints; nil prices without
	// one. The machine fingerprint is part of every segment key, so
	// within one sweep a cache hits only where two cells build the
	// same machine. Content-fingerprint keys make sharing sound.
	SegCache *aggregate.SegCache
	// Progress, when set, is called after each cell evaluation with
	// (cells done, cells total). Calls may come from worker goroutines.
	Progress func(done, total int)
}

// Cell is one evaluated machine configuration.
type Cell struct {
	// Index is the cell's canonical lattice position (SpecTemplate
	// expansion order).
	Index int `json:"index"`
	// Name is the expanded spec's name: the base name suffixed with
	// the choice assignment.
	Name string `json:"name"`
	// Fingerprint is the machine's content fingerprint.
	Fingerprint string `json:"fingerprint"`
	// Choices maps dimension keys ("dispatch", "pipes.<unit>",
	// "ops.<op>") to chosen values.
	Choices map[string]int `json:"choices,omitempty"`
	// Budget is the declared hardware-budget scalar (SpecTemplate.BudgetOf).
	Budget float64 `json:"budget"`
	// Costs holds the predicted cycles of each kernel at the
	// evaluation point, index-aligned with Result.Kernels.
	Costs []float64 `json:"costs"`
	// Total is the sum of Costs.
	Total float64 `json:"total"`
}

// Pruned records one dominated configuration and its witness: a
// retained front member that dominates it. Budget and Costs are kept
// so the dominance claim is checkable from the result alone — the
// invariant harness does exactly that.
type Pruned struct {
	Index  int       `json:"index"`
	Name   string    `json:"name"`
	Budget float64   `json:"budget"`
	Costs  []float64 `json:"costs"`
	Total  float64   `json:"total"`
	// DominatedBy is the Index of the lowest-indexed front cell that
	// dominates this one.
	DominatedBy int `json:"dominated_by"`
}

// Result is the outcome of a sweep.
type Result struct {
	// Cells is the lattice size (== len(Front) + len(Pruned)).
	Cells int `json:"cells"`
	// Kernels names the cost-vector coordinates.
	Kernels []string `json:"kernels"`
	// Target echoes Options.Target when one was set.
	Target float64 `json:"target,omitempty"`
	// Front is the Pareto front over (budget, costs...), in canonical
	// lattice order. Members are mutually non-dominated.
	Front []Cell `json:"front"`
	// Pruned lists every dominated config with its witness.
	Pruned []Pruned `json:"pruned,omitempty"`
	// Best is the cheapest-budget config with Total <= Target (ties:
	// lower Total, then lower Index), or — with no target — the config
	// with the lowest Total. Nil when a target was set and no config
	// meets it.
	Best *Cell `json:"best,omitempty"`
}

// Dominates reports whether a dominates b: no worse on the budget
// scalar and on every kernel cost, and strictly better somewhere.
// This is the ONLY ordering exploration prunes by; it never consults
// the structural resource lattice (Graham's anomaly).
func Dominates(a, b *Cell) bool {
	if a.Budget > b.Budget || len(a.Costs) != len(b.Costs) {
		return false
	}
	for i := range a.Costs {
		if a.Costs[i] > b.Costs[i] {
			return false
		}
	}
	if a.Budget < b.Budget {
		return true
	}
	for i := range a.Costs {
		if a.Costs[i] < b.Costs[i] {
			return true
		}
	}
	return false
}

// Run compiles the template, prices every kernel on every cell, and
// reduces the lattice to its Pareto front. Results are deterministic:
// independent of Workers, of cache warmth, and of scheduling — every
// cell's costs are pure functions of (kernel, machine, args), and the
// frontier pass is serial over the canonical cell order.
func Run(ctx context.Context, tpl *machine.SpecTemplate, kernels []Kernel, opt Options) (*Result, error) {
	if len(kernels) == 0 {
		return nil, fmt.Errorf("explore: no kernels")
	}
	return run(ctx, tpl, prepare(kernels), opt)
}

// preparedKernel is one kernel made ready for a sweep: parsed and
// analyzed once, with the lowering memo all cells share. The program
// and table are read-only from here on, so cells on different
// goroutines may price them concurrently. err records a parse or
// analysis failure; it surfaces from the first cell that reaches the
// kernel, exactly where pricing would have hit it.
type preparedKernel struct {
	name  string
	prog  *source.Program
	tbl   *sem.Table
	lower *aggregate.LowerMemo
	err   error
}

func prepare(kernels []Kernel) []preparedKernel {
	out := make([]preparedKernel, len(kernels))
	for i, k := range kernels {
		pk := &out[i]
		pk.name = k.Name
		pk.prog, pk.err = source.Parse(k.Source)
		if pk.err == nil {
			pk.tbl, pk.err = sem.Analyze(pk.prog)
		}
		if pk.err == nil {
			pk.lower = aggregate.NewLowerMemo()
		}
	}
	return out
}

func run(ctx context.Context, tpl *machine.SpecTemplate, kernels []preparedKernel, opt Options) (*Result, error) {
	lat, err := tpl.Compile()
	if err != nil {
		return nil, err
	}
	total := lat.Len()
	cells := make([]Cell, total)
	cellErrs := make([]error, total)
	var done atomicCounter
	runErr := workpool.RunCtx(ctx, total, opt.Workers, func(i int) {
		lc := lat.Cell(i)
		costs, err := evalCell(kernels, lc.Machine, opt.SegCache, opt.Args)
		if err != nil {
			cellErrs[i] = fmt.Errorf("explore: cell %s: %w", lc.Name, err)
			return
		}
		sum := 0.0
		for _, c := range costs {
			sum += c
		}
		cells[i] = Cell{
			Index:       i,
			Name:        lc.Name,
			Fingerprint: lc.Machine.Fingerprint().String(),
			Choices:     lc.Choices,
			Budget:      lc.Budget,
			Costs:       costs,
			Total:       sum,
		}
		if opt.Progress != nil {
			opt.Progress(done.inc(), total)
		}
	})
	if runErr != nil {
		// A partial lattice would yield a misleading front; exploration
		// is all-or-nothing under cancellation.
		return nil, runErr
	}
	for _, err := range cellErrs {
		if err != nil {
			return nil, err
		}
	}

	res := &Result{Cells: len(cells), Target: opt.Target}
	for _, k := range kernels {
		res.Kernels = append(res.Kernels, k.name)
	}
	buildFrontier(res, cells)
	res.Best = pickBest(cells, opt.Target)
	return res, nil
}

// buildFrontier partitions the cells into the Pareto front and the
// pruned set, recording for each pruned cell the lowest-indexed front
// member that dominates it. O(n²) over the lattice — exact, order-
// independent, and cheap next to pricing the cells.
func buildFrontier(res *Result, cells []Cell) {
	onFront := make([]bool, len(cells))
	for i := range cells {
		dominated := false
		for j := range cells {
			if j != i && Dominates(&cells[j], &cells[i]) {
				dominated = true
				break
			}
		}
		onFront[i] = !dominated
	}
	for i := range cells {
		if onFront[i] {
			res.Front = append(res.Front, cells[i])
			continue
		}
		witness := -1
		for j := range cells {
			if onFront[j] && Dominates(&cells[j], &cells[i]) {
				witness = j
				break
			}
		}
		// A dominated cell always has a front witness: dominance is a
		// strict partial order, so following "dominates" edges upward
		// from any dominated cell terminates at an undominated one,
		// and dominance is transitive along the way.
		res.Pruned = append(res.Pruned, Pruned{
			Index:       cells[i].Index,
			Name:        cells[i].Name,
			Budget:      cells[i].Budget,
			Costs:       cells[i].Costs,
			Total:       cells[i].Total,
			DominatedBy: witness,
		})
	}
}

// pickBest selects Result.Best: with a positive target, the
// cheapest-budget cell whose Total meets it (ties broken by lower
// Total, then lower Index); without one, the lowest-Total cell
// (ties: lower Budget, then lower Index).
func pickBest(cells []Cell, target float64) *Cell {
	var best *Cell
	for i := range cells {
		c := &cells[i]
		if target > 0 {
			if c.Total > target {
				continue
			}
			if best == nil || c.Budget < best.Budget ||
				(c.Budget == best.Budget && c.Total < best.Total) {
				best = c
			}
		} else {
			if best == nil || c.Total < best.Total ||
				(c.Total == best.Total && c.Budget < best.Budget) {
				best = c
			}
		}
	}
	if best == nil {
		return nil
	}
	out := *best
	return &out
}

// atomicCounter counts finished cells for progress reporting.
type atomicCounter struct{ n atomic.Int64 }

func (c *atomicCounter) inc() int { return int(c.n.Add(1)) }

// evalCell prices every kernel on one machine and evaluates the
// symbolic costs at the sweep's evaluation point. Only the
// machine-dependent layers run here: each kernel's estimator takes the
// prepared program and table, lowers through the kernel's per-sweep
// memo, and prices through the caller's machine-fingerprint-keyed
// segment cache, if any. Estimators themselves are never shared across
// goroutines.
func evalCell(kernels []preparedKernel, m *machine.Machine, seg *aggregate.SegCache, args map[string]float64) ([]float64, error) {
	costs := make([]float64, len(kernels))
	for ki, k := range kernels {
		if k.err != nil {
			return nil, fmt.Errorf("kernel %s: %w", k.name, k.err)
		}
		est := aggregate.NewWithCaches(k.tbl, m, aggregate.DefaultOptions(), aggregate.Caches{Seg: seg, Lower: k.lower})
		res, err := est.Program(k.prog)
		if err != nil {
			return nil, fmt.Errorf("kernel %s: %w", k.name, err)
		}
		v, err := res.Cost.Eval(aggregate.EvalPoint(res.Unknowns, args, true))
		if err != nil {
			return nil, fmt.Errorf("kernel %s: eval: %w", k.name, err)
		}
		costs[ki] = v
	}
	return costs, nil
}
