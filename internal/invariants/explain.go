package invariants

// Explain-mode invariants. The diagnosis side of the estimator
// (tetris.EstimateExplained, explain.Program, perfpredict.ExplainCtx)
// must be provably inert — explaining a schedule or a program never
// changes what the plain estimators return — and every quantity it
// reports must be consistent with the schedule it describes:
//
//   - explain-inert: EstimateExplained's embedded Result equals
//     Estimate's, and a plain Estimate issued *after* the explained
//     one (and after the what-if) is still identical — the pooled
//     recorder leaves no residue in the shared scratch.
//   - explain-utilization: every per-pipe and per-kind utilization is
//     in [0, 1], each kind's busy count is the sum of its pipes', and
//     the bottleneck is the kind with the maximum utilization
//     (lexicographic tie-break).
//   - explain-path: the critical path is nonempty whenever the block
//     costs anything, runs in strictly increasing instruction order
//     (dependences and blockers only point backward), starts at an
//     unconstrained step, carries only known edge kinds, agrees with
//     the schedule's placement arrays, and spans PathCycles =
//     head finish − first occupied slot ≤ the makespan.
//   - explain-dep-height: the infinite-resource dependence height
//     lower-bounds the end of the greedy schedule and — on blocks the
//     oracle proved optimal — the end of the exact optimum too.
//   - explain-what-if: the one-more-pipe experiment names the
//     bottleneck kind, one more pipe than the base machine, and a
//     speedup that is exactly baseline/what-if cost. Deliberately NOT
//     asserted: what-if cost ≤ baseline. Greedy scheduling is not
//     monotone in resources (Graham's anomaly) and the model reports
//     a slowdown faithfully when one occurs.
//   - explain-inert-program / explain-cycles-consistent: program-level
//     ExplainCtx leaves Predict byte-identical, and its headline cycles
//     are the prediction evaluated at explain's default point
//     (probability → 0.5, every other unknown → 100).

import (
	"context"
	"fmt"
	"math"
	"reflect"

	perfpredict "perfpredict"
	"perfpredict/internal/aggregate"
	"perfpredict/internal/ir"
	"perfpredict/internal/machine"
	"perfpredict/internal/oracle"
	"perfpredict/internal/progen"
	"perfpredict/internal/tetris"
)

// checkExplainBlock runs the block-level explain suite on one sample.
// approx is the plain Estimate for the same inputs; exact carries the
// oracle's verdict when exactOK.
func checkExplainBlock(m *machine.Machine, b *ir.Block, topt tetris.Options,
	approx tetris.Result, exact oracle.Result, exactOK bool,
	fail func(inv, format string, a ...any)) {

	mayAlias := topt.MayAlias
	ex, err := tetris.EstimateExplained(m, b, topt)
	if err != nil {
		fail("explain-total", "mayAlias=%v: EstimateExplained failed on a valid input: %v", mayAlias, err)
		return
	}

	// explain-inert: the recorder only observes commits.
	if !reflect.DeepEqual(ex.Result, approx) {
		fail("explain-inert", "mayAlias=%v: explained result %+v != plain %+v",
			mayAlias, ex.Result, approx)
	}

	// explain-utilization.
	kindBusy := map[machine.UnitKind]int{}
	for _, p := range ex.Pipes {
		if p.Utilization < 0 || p.Utilization > 1 {
			fail("explain-utilization", "mayAlias=%v: pipe %s utilization %v outside [0,1]",
				mayAlias, p.Pipe, p.Utilization)
		}
		kindBusy[p.Kind] += p.Busy
	}
	for _, k := range ex.Kinds {
		if k.Utilization < 0 || k.Utilization > 1 {
			fail("explain-utilization", "mayAlias=%v: kind %s utilization %v outside [0,1]",
				mayAlias, k.Kind, k.Utilization)
		}
		if k.Busy != kindBusy[k.Kind] {
			fail("explain-utilization", "mayAlias=%v: kind %s busy %d != sum of its pipes %d",
				mayAlias, k.Kind, k.Busy, kindBusy[k.Kind])
		}
		switch {
		case k.Utilization > ex.BottleneckUtil+1e-12:
			fail("explain-utilization", "mayAlias=%v: kind %s at %v beats bottleneck %s at %v",
				mayAlias, k.Kind, k.Utilization, ex.Bottleneck, ex.BottleneckUtil)
		case k.Utilization == ex.BottleneckUtil && k.Kind < ex.Bottleneck:
			fail("explain-utilization", "mayAlias=%v: tie at %v broke to %s, not the smaller %s",
				mayAlias, k.Utilization, ex.Bottleneck, k.Kind)
		case k.Kind == ex.Bottleneck && k.Utilization != ex.BottleneckUtil:
			fail("explain-utilization", "mayAlias=%v: bottleneck %s reports %v but its kind row says %v",
				mayAlias, ex.Bottleneck, ex.BottleneckUtil, k.Utilization)
		}
	}
	if len(ex.Kinds) == 0 && ex.Bottleneck != "" {
		fail("explain-utilization", "mayAlias=%v: bottleneck %q with no unit kinds", mayAlias, ex.Bottleneck)
	}
	if ex.SaturatedAt != -1 && (ex.SaturatedAt < approx.Start || ex.SaturatedAt >= approx.End) {
		fail("explain-utilization", "mayAlias=%v: saturation slot %d outside schedule [%d,%d)",
			mayAlias, ex.SaturatedAt, approx.Start, approx.End)
	}

	// explain-path.
	n := len(b.Instrs)
	if len(ex.OpPipe) != n || len(ex.Finish) != n {
		fail("explain-path", "mayAlias=%v: per-op arrays sized %d/%d for %d instructions",
			mayAlias, len(ex.OpPipe), len(ex.Finish), n)
		return
	}
	for i, p := range ex.OpPipe {
		if p < -1 || p >= len(ex.Pipes) {
			fail("explain-path", "mayAlias=%v: op %d placed on pipe index %d of %d",
				mayAlias, i, p, len(ex.Pipes))
		}
	}
	if approx.Cost > 0 && len(ex.Path) == 0 {
		fail("explain-path", "mayAlias=%v: cost %d but empty critical path", mayAlias, approx.Cost)
	}
	if ex.PathCycles < 0 || ex.PathCycles > approx.Cost {
		fail("explain-path", "mayAlias=%v: path spans %d cycles of a %d-cycle schedule",
			mayAlias, ex.PathCycles, approx.Cost)
	}
	for i, s := range ex.Path {
		if s.Instr < 0 || s.Instr >= n {
			fail("explain-path", "mayAlias=%v: step %d names instruction %d of %d", mayAlias, i, s.Instr, n)
			continue
		}
		if s.Start != approx.PlaceTime[s.Instr] || s.Finish != ex.Finish[s.Instr] {
			fail("explain-path", "mayAlias=%v: step %d (#%d) at %d..%d disagrees with placement %d..%d",
				mayAlias, i, s.Instr, s.Start, s.Finish,
				approx.PlaceTime[s.Instr], ex.Finish[s.Instr])
		}
		if i == 0 {
			if s.Edge != "" {
				fail("explain-path", "mayAlias=%v: earliest step claims a %q constraint", mayAlias, s.Edge)
			}
			continue
		}
		if s.Instr <= ex.Path[i-1].Instr {
			fail("explain-path", "mayAlias=%v: step %d instruction #%d does not follow #%d",
				mayAlias, i, s.Instr, ex.Path[i-1].Instr)
		}
		switch s.Edge {
		case tetris.EdgeDep, tetris.EdgeDispatch:
		case tetris.EdgeResource:
			if s.Unit == "" {
				fail("explain-path", "mayAlias=%v: resource step %d names no unit", mayAlias, i)
			}
		default:
			fail("explain-path", "mayAlias=%v: step %d has unknown edge %q", mayAlias, i, s.Edge)
		}
	}
	if len(ex.Path) > 0 {
		head := ex.Path[len(ex.Path)-1]
		if want := head.Finish - approx.Start; want > 0 && ex.PathCycles != want {
			fail("explain-path", "mayAlias=%v: path cycles %d != head finish %d - start %d",
				mayAlias, ex.PathCycles, head.Finish, approx.Start)
		}
	}

	// explain-dep-height.
	if ex.DepHeight > approx.End {
		fail("explain-dep-height", "mayAlias=%v: dependence height %d exceeds greedy end %d",
			mayAlias, ex.DepHeight, approx.End)
	}
	if exactOK && exact.Proven && ex.DepHeight > exact.End {
		fail("explain-dep-height", "mayAlias=%v: dependence height %d exceeds proven-optimal end %d",
			mayAlias, ex.DepHeight, exact.End)
	}

	// explain-what-if. Monotonicity (what-if ≤ baseline) is NOT an
	// invariant — see the package comment above.
	if err := ex.ComputeWhatIf(m, b, topt); err != nil {
		fail("explain-what-if", "mayAlias=%v: ComputeWhatIf: %v", mayAlias, err)
	} else if ex.Bottleneck != "" {
		w := ex.WhatIf
		if w == nil {
			fail("explain-what-if", "mayAlias=%v: bottleneck %s but no experiment", mayAlias, ex.Bottleneck)
		} else {
			if w.Unit != ex.Bottleneck {
				fail("explain-what-if", "mayAlias=%v: experiment on %s, bottleneck is %s",
					mayAlias, w.Unit, ex.Bottleneck)
			}
			if w.Pipes != m.UnitCounts[ex.Bottleneck]+1 {
				fail("explain-what-if", "mayAlias=%v: %d pipes after adding one to %d",
					mayAlias, w.Pipes, m.UnitCounts[ex.Bottleneck])
			}
			if w.Cost > 0 {
				if want := float64(approx.Cost) / float64(w.Cost); math.Abs(w.Speedup-want) > 1e-12 {
					fail("explain-what-if", "mayAlias=%v: speedup %v != %d/%d", mayAlias, w.Speedup, approx.Cost, w.Cost)
				}
			} else if w.Speedup != 1 {
				fail("explain-what-if", "mayAlias=%v: zero-cost what-if with speedup %v", mayAlias, w.Speedup)
			}
		}
	}

	// explain-inert, second half: after the whole diagnosis (recorder
	// pooling, what-if on a derived machine) a plain Estimate still
	// reproduces the original result exactly.
	if after, err := tetris.Estimate(m, b, topt); err != nil || !reflect.DeepEqual(after, approx) {
		fail("explain-inert", "mayAlias=%v: Estimate after diagnosis differs: %+v vs %+v (err %v)",
			mayAlias, after, approx, err)
	}
}

// CheckExplain runs the program-level explain suite for one seed: on a
// generated F-lite program, ExplainCtx must succeed, report cycles
// consistent with Predict at explain's default evaluation point, and
// leave a subsequent Predict byte-identical.
func CheckExplain(seed int64) []Violation {
	var vs []Violation
	fail := func(inv, format string, a ...any) {
		vs = append(vs, Violation{Invariant: inv, Seed: seed, Detail: fmt.Sprintf(format, a...)})
	}
	r := progen.NewRand(seed)
	src := progen.GenProgram(r, progen.ProgramConfig{AllowIf: true, AllowSubroutine: true})

	var target *perfpredict.Target
	if r.Intn(2) == 0 {
		m, err := progen.GenSpec(r).Machine()
		if err != nil {
			fail("gen-spec-valid", "generated spec rejected: %v", err)
			return vs
		}
		target = m
	} else {
		names := perfpredict.TargetNames()
		t, err := perfpredict.LoadTarget(names[r.Intn(len(names))])
		if err != nil {
			fail("load-target", "builtin target failed to load: %v", err)
			return vs
		}
		target = t
	}

	before, err := perfpredict.Predict(src, target)
	if err != nil {
		fail("predict-total", "Predict failed on generated program: %v\n%s", err, src)
		return vs
	}
	rep, err := perfpredict.ExplainCtx(context.Background(), src, target, perfpredict.ExplainOptions{})
	if err != nil {
		fail("explain-program-total", "Explain failed where Predict succeeded: %v\n%s", err, src)
		return vs
	}

	// explain-inert-program: diagnosing must not perturb prediction.
	after, err := perfpredict.Predict(src, target)
	if err != nil {
		fail("explain-inert-program", "Predict failed after Explain: %v", err)
	} else if before.Cost.String() != after.Cost.String() ||
		before.Memory.String() != after.Memory.String() ||
		before.OneTime.String() != after.OneTime.String() ||
		!reflect.DeepEqual(before.Unknowns, after.Unknowns) {
		fail("explain-inert-program", "Predict changed across Explain: cost %q -> %q",
			before.Cost.String(), after.Cost.String())
	}

	// explain-cycles-consistent: the headline numbers are Predict's own
	// expressions evaluated at the default point (EvalAt defaults the
	// probabilities).
	point := map[string]float64{}
	for _, u := range before.Unknowns {
		if u.Kind != "probability" {
			point[u.Name] = aggregate.DefaultUnknown
		}
	}
	if v, err := before.EvalAt(point); err != nil {
		fail("explain-cycles-consistent", "EvalAt default point: %v", err)
	} else if math.Abs(v-rep.Cycles) > 1e-6*math.Max(1, math.Abs(v)) {
		fail("explain-cycles-consistent", "report %v cycles, prediction evaluates to %v", rep.Cycles, v)
	}
	if mv, err := before.EvalMemoryAt(point); err == nil &&
		math.Abs(mv-rep.MemoryCycles) > 1e-6*math.Max(1, math.Abs(mv)) {
		fail("explain-cycles-consistent", "report %v memory cycles, prediction evaluates to %v",
			rep.MemoryCycles, mv)
	}

	// Report well-formedness: weights are a distribution over nests,
	// every utilization is a fraction.
	if len(rep.Nests) > 0 {
		sum := 0.0
		for _, nst := range rep.Nests {
			sum += nst.Weight
			if nst.BottleneckUtil < 0 || nst.BottleneckUtil > 1 {
				fail("explain-report-sane", "nest %s bottleneck utilization %v", nst.Label, nst.BottleneckUtil)
			}
			for _, k := range nst.Kinds {
				if k.Utilization < 0 || k.Utilization > 1 {
					fail("explain-report-sane", "nest %s kind %s utilization %v", nst.Label, k.Kind, k.Utilization)
				}
			}
			if nst.PathCycles > nst.BlockCost {
				fail("explain-report-sane", "nest %s path %d cycles of a %d-cycle block",
					nst.Label, nst.PathCycles, nst.BlockCost)
			}
		}
		if math.Abs(sum-1) > 1e-9 {
			fail("explain-report-sane", "nest weights sum to %v", sum)
		}
	}
	if rep.BottleneckUtil < 0 || rep.BottleneckUtil > 1 {
		fail("explain-report-sane", "program bottleneck utilization %v", rep.BottleneckUtil)
	}
	return vs
}
