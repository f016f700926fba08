package perfpredict

import (
	"fmt"

	"perfpredict/internal/source"
	"perfpredict/internal/symexpr"
	"perfpredict/internal/xform"
)

// MultiVersionResult is the outcome of MultiVersion.
type MultiVersionResult struct {
	// Source is the combined program: a run-time test selecting the
	// variant that is cheaper on its side of the crossover. Empty when
	// no versioning is warranted.
	Source string
	// Variable and Threshold define the emitted test
	// `if (Variable < Threshold+1)`.
	Variable  string
	Threshold float64
	// Verdict explains the decision: VerdictDepends produced a
	// versioned program; a one-sided verdict means one variant wins
	// everywhere and Source holds that variant unmodified.
	Verdict ComparisonVerdict
}

// MultiVersion compares two variants of the same program unit over the
// given bounds and, when the winner depends on an unknown (§3.4),
// emits a two-version program guarded by the run-time test at the
// predicted crossover. The variant that is cheaper below the crossover
// is placed on the then-branch.
func MultiVersion(srcA, srcB string, target *Target, bounds map[string]Bound) (MultiVersionResult, error) {
	pa, err := Predict(srcA, target)
	if err != nil {
		return MultiVersionResult{}, fmt.Errorf("first variant: %w", err)
	}
	pb, err := Predict(srcB, target)
	if err != nil {
		return MultiVersionResult{}, fmt.Errorf("second variant: %w", err)
	}
	cmp, err := Compare(pa, pb, bounds)
	if err != nil {
		return MultiVersionResult{}, err
	}
	out := MultiVersionResult{Verdict: cmp.Verdict}
	switch cmp.Verdict {
	case VerdictFirstBetter, VerdictEqual:
		out.Source = srcA
		return out, nil
	case VerdictSecondBetter:
		out.Source = srcB
		return out, nil
	case VerdictDepends:
		if len(cmp.Crossovers) == 0 || cmp.Variable == "" {
			return out, fmt.Errorf("perfpredict: winner depends on unknowns but no univariate crossover was found")
		}
	default:
		return out, fmt.Errorf("perfpredict: comparison inconclusive")
	}
	threshold := cmp.Crossovers[0]
	// Which variant is cheaper below the crossover? Evaluate the
	// difference just below it.
	at := threshold - 1
	if lo, ok := bounds[cmp.Variable]; ok && at < lo.Lo {
		at = lo.Lo
	}
	diffBelow, err := cmp.Difference.Eval(map[symexpr.Var]float64{symexpr.Var(cmp.Variable): at})
	if err != nil {
		return out, err
	}
	first, second := pa.prog, pb.prog
	if diffBelow > 0 { // second is cheaper below the crossover
		first, second = pb.prog, pa.prog
	}
	v, err := xform.Versioned(first, second, xform.ThresholdGuard(cmp.Variable, threshold))
	if err != nil {
		return out, err
	}
	out.Source = source.PrintProgram(v)
	out.Variable = cmp.Variable
	out.Threshold = threshold
	return out, nil
}
