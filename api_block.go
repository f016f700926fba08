package perfpredict

import (
	"fmt"

	"perfpredict/internal/lower"
	"perfpredict/internal/pipesim"
	"perfpredict/internal/source"
	"perfpredict/internal/tetris"
)

// BlockReport is a straight-line cost analysis of a program's
// innermost basic block — the Figure 7 experiment's unit of
// comparison.
type BlockReport struct {
	// Instructions is the number of basic operations after back-end
	// imitation.
	Instructions int
	// Predicted is the Tetris-model cost of one block execution.
	Predicted int
	// PredictedPerIter is the steady-state per-iteration cost when the
	// block repeats (overlapped iterations).
	PredictedPerIter float64
	// Reference is the cycle count of the list-scheduled block on the
	// in-order reference pipeline (the xlf-listing substitute).
	Reference int64
	// Baseline is the conventional operation-count estimate: the sum
	// of per-operation latencies, ignoring all overlap — the model the
	// paper says "may be off by a factor of ten or more".
	Baseline int64
	// CriticalUnit is the busiest functional unit and its utilization.
	CriticalUnit string
	Utilization  float64
	// Ops is the block's operation histogram: basic-operation name →
	// count after back-end imitation.
	Ops map[string]int
}

// ErrorPct returns the signed prediction error versus the reference in
// percent.
func (r BlockReport) ErrorPct() float64 {
	if r.Reference == 0 {
		return 0
	}
	return 100 * (float64(r.Predicted) - float64(r.Reference)) / float64(r.Reference)
}

// BaselineFactor returns Baseline / Reference: how far off the
// conventional model is.
func (r BlockReport) BaselineFactor() float64 {
	if r.Reference == 0 {
		return 0
	}
	return float64(r.Baseline) / float64(r.Reference)
}

// AnalyzeInnermostBlock lowers the innermost loop body of the program
// and prices it three ways: the Tetris prediction, the reference
// pipeline simulation, and the operation-count baseline.
func AnalyzeInnermostBlock(src string, target *Target) (BlockReport, error) {
	return AnalyzeInnermostBlockWithOptions(src, target, lower.DefaultOptions(), tetris.Options{})
}

// AnalyzeInnermostBlockWithOptions exposes the back-end imitation and
// placement knobs for ablation studies.
func AnalyzeInnermostBlockWithOptions(src string, target *Target, lopt lower.Options, topt tetris.Options) (BlockReport, error) {
	prog, tbl, err := analyze(src)
	if err != nil {
		return BlockReport{}, err
	}
	nest, ok := source.Innermost(prog.Body)
	if !ok {
		return BlockReport{}, fmt.Errorf("perfpredict: no innermost straight-line block found")
	}
	tr := lower.New(tbl, target, lopt)
	lw, err := tr.Body(nest.Body, nest.Vars())
	if err != nil {
		return BlockReport{}, err
	}
	block := lw.Body
	rep := BlockReport{Instructions: len(block.Instrs), Ops: map[string]int{}}
	for op, n := range block.Counts() {
		rep.Ops[op.String()] = n
	}

	pred, err := tetris.Estimate(target, block, topt)
	if err != nil {
		return BlockReport{}, err
	}
	rep.Predicted = pred.Cost
	unit, util := pred.Shape.CriticalUnit()
	rep.CriticalUnit, rep.Utilization = string(unit), util

	per, _, err := tetris.SteadyState(target, block, topt, 4)
	if err != nil {
		return BlockReport{}, err
	}
	rep.PredictedPerIter = per

	sim, err := pipesim.RunScheduled(target, block)
	if err != nil {
		return BlockReport{}, err
	}
	rep.Reference = sim.Cycles

	for _, in := range block.Instrs {
		rep.Baseline += int64(target.Latency(in.Op))
	}
	return rep, nil
}
