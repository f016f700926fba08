package perfpredict

import (
	"context"

	"perfpredict/internal/explain"
)

// ExplainReport diagnoses where a program's predicted cycles go: the
// per-nest critical paths, per-unit utilizations, the first-saturating
// resource, the memory-bound label, and the one-more-pipe what-if.
// Explanation is strictly read-only over the same placements Predict
// prices — running it never changes any prediction.
type ExplainReport = explain.Report

// ExplainNest is one loop nest's diagnosis within an ExplainReport.
type ExplainNest = explain.Nest

// ExplainPathStep is one instruction on a nest's binding critical path.
type ExplainPathStep = explain.PathStep

// ExplainWhatIf is the one-more-pipe experiment of an ExplainReport.
type ExplainWhatIf = explain.WhatIf

// ExplainOptions tune ExplainCtx. The zero value includes the
// one-more-pipe experiment. The report prices exactly as Predict does,
// so its Cycles match Predict's EvalAt at the same point.
type ExplainOptions struct {
	// Nominal assigns values to unknowns when apportioning cycles
	// across nests and evaluating the what-if. Missing unknowns take
	// the point OptimizeCtx ranks at: probabilities 0.5, other
	// unknowns 100.
	Nominal map[string]float64
	// SkipWhatIf suppresses the one-more-pipe experiment, saving one
	// extra whole-program prediction.
	SkipWhatIf bool
}

// ExplainCtx predicts a program and diagnoses the prediction: which
// unit saturates first, which dependence/resource chain binds each
// kernel, and what one more pipe of the bottleneck kind would buy.
// ctx is checked before the (uninterruptible, milliseconds-scale)
// pipeline runs.
func ExplainCtx(ctx context.Context, src string, target *Target, opt ExplainOptions) (*ExplainReport, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	prog, tbl, err := analyze(src)
	if err != nil {
		return nil, err
	}
	return explain.Program(prog, tbl, target, explain.Options{
		Nominal:    opt.Nominal,
		SkipWhatIf: opt.SkipWhatIf,
	})
}
