package perfpredict

import (
	"context"

	"perfpredict/internal/explore"
	"perfpredict/internal/machine"
)

// MachineTemplate is a machine description with free parameters —
// pipe-count ranges, a dispatch-width range, alternative op
// expansions — that expands into a canonical lattice of concrete
// machine specs. See internal/machine.SpecTemplate for the JSON
// format; ParseMachineTemplate loads one.
type MachineTemplate = machine.SpecTemplate

// ParseMachineTemplate decodes a machine template from its strict
// JSON form. The result is validated lazily: ExploreCtx (or the
// template's own Validate/Expand) reports malformed templates.
func ParseMachineTemplate(data []byte) (*MachineTemplate, error) {
	return machine.ParseTemplate(data)
}

// ExploreKernel is one workload member of a design-space sweep.
type ExploreKernel = explore.Kernel

// ExploreResult is the outcome of a sweep: the Pareto front over
// (hardware budget, per-kernel cost...), the pruned configs with
// dominance witnesses, and the best config for the target.
type ExploreResult = explore.Result

// ExploreCell is one evaluated machine configuration of an
// ExploreResult.
type ExploreCell = explore.Cell

// ExploreOptions tune ExploreCtx. The zero value explores with
// GOMAXPROCS workers, default argument conventions (probabilities
// 0.5, other unknowns 100), no cost target, and no segment cache.
type ExploreOptions struct {
	// Workers bounds the cell-evaluation pool (<= 0 = GOMAXPROCS).
	Workers int
	// Args assigns values to kernel unknowns at evaluation.
	Args map[string]float64
	// Target, when positive, selects the cheapest-budget config whose
	// total cost meets it as ExploreResult.Best.
	Target float64
	// SegCache shares straight-line segment costs across sweeps and
	// with other predictions; nil prices without one. Cells differ in
	// machine content, which every segment key includes, so a cache
	// private to one sweep would rarely hit.
	SegCache *SegmentCache
	// Progress, when set, is called after each cell evaluation with
	// (cells done, cells total); calls may come from worker
	// goroutines. It observes progress only — results never depend on
	// it.
	Progress func(done, total int)
}

// ExploreCtx expands a machine template and prices every kernel on
// every lattice cell, reducing the design space to a Pareto front.
// Results are deterministic: independent of worker count and cache
// warmth. Cancellation is checked between cell evaluations; a cancelled sweep returns the
// context error rather than a partial (and therefore misleading)
// front.
func ExploreCtx(ctx context.Context, tpl *MachineTemplate, kernels []ExploreKernel, opt ExploreOptions) (*ExploreResult, error) {
	return explore.Run(ctx, tpl, kernels, explore.Options{
		Workers:  opt.Workers,
		Args:     opt.Args,
		Target:   opt.Target,
		SegCache: opt.SegCache,
		Progress: opt.Progress,
	})
}
