// Package perfpredict is a compile-time performance prediction
// framework for superscalar processors, reproducing Ko-Yang Wang,
// "Precise Compile-Time Performance Prediction for Superscalar-Based
// Computers" (PLDI 1994).
//
// The library predicts the execution cost of Fortran-like (F-lite)
// programs without running them:
//
//   - straight-line code is priced by a detailed, portable cost model
//     that packs per-unit "cost objects" (noncoverable + coverable
//     cycles) into functional-unit time slots, honoring data
//     dependences — capturing the instruction-level parallelism of
//     superscalar machines;
//   - an instruction-translation module imitates back-end
//     optimizations (CSE, code motion, FMA fusion, dead-store
//     elimination) so source-level predictions match generated code;
//   - loops and conditionals aggregate symbolically: the result is a
//     polynomial over program unknowns (loop bounds, branching
//     probabilities), so guesses are delayed or avoided;
//   - symbolic comparison of two variants finds the parameter regions
//     where each wins, feeding automatic, performance-guided program
//     restructuring (unroll/interchange/tile/fuse chosen by search).
//
// Ground truth for validation comes from a cycle-level in-order
// pipeline simulator and an interpreter that replays whole programs
// through it.
//
// Quick start:
//
//	pred, err := perfpredict.Predict(src, perfpredict.POWER1())
//	cycles, err := pred.EvalAt(map[string]float64{"n": 1000})
//	actual, err := perfpredict.Simulate(src, perfpredict.POWER1(),
//	    map[string]float64{"n": 1000})
package perfpredict

import (
	"context"
	"fmt"
	"os"
	"strings"

	"perfpredict/internal/aggregate"
	"perfpredict/internal/interp"
	"perfpredict/internal/machine"
	"perfpredict/internal/sem"
	"perfpredict/internal/source"
	"perfpredict/internal/symexpr"
)

// Expression is a symbolic performance expression: a polynomial over
// program unknowns, in cycles.
type Expression = symexpr.Poly

// Var names a symbolic unknown in an Expression.
type Var = symexpr.Var

// Target describes the machine being predicted for. The library
// treats targets as read-only: no entry point mutates the Target it
// is given, so one Target may serve concurrent calls.
type Target = machine.Machine

// mustTarget resolves a builtin target through the machine registry;
// builtins are embedded spec files, so failure is a build bug.
func mustTarget(name string) *Target {
	m, err := machine.Lookup(name)
	if err != nil {
		panic("perfpredict: builtin target: " + err.Error())
	}
	return m
}

// POWER1 returns the IBM RS/6000 POWER-like target of the paper's
// examples (FXU/FPU/branch/CR units, fused multiply-add), loaded from
// its registered machine spec.
func POWER1() *Target { return mustTarget("POWER1") }

// SuperScalar2 returns a wider hypothetical machine with two
// fixed-point and two floating-point pipes.
func SuperScalar2() *Target { return mustTarget("SuperScalar2") }

// Scalar1 returns a conventional single-issue machine with no
// overlap; on it the framework degenerates to an operation-count cost
// model (the baseline the paper improves upon).
func Scalar1() *Target { return mustTarget("Scalar1") }

// TargetNames lists every registered target machine, sorted — the
// valid names LoadTarget resolves without touching the filesystem.
func TargetNames() []string { return machine.Names() }

// LoadTarget resolves a target from a registered machine name
// (case-insensitive) or, failing that, from a machine-spec file at the
// given path. Retargeting the predictor is exactly the paper's §2.2
// claim — "defining the atomic operation mapping and the atomic
// operation cost table" — and a spec file is that definition as data:
// it is parsed, strictly validated (unknown units, malformed or
// overlapping cost segments, and missing basic-operation mappings are
// load-time errors), and built into a fresh Target. Every mapping the
// lowering layer requires (internal/lower.RequiredOps) is guaranteed
// present on success.
func LoadTarget(nameOrPath string) (*Target, error) {
	if m, err := machine.Lookup(nameOrPath); err == nil {
		return m, nil
	}
	data, rerr := os.ReadFile(nameOrPath)
	if rerr != nil {
		return nil, fmt.Errorf("perfpredict: unknown machine %q (registered: %s), and no spec file there: %v",
			nameOrPath, strings.Join(machine.Names(), ", "), rerr)
	}
	spec, err := machine.ParseSpec(data)
	if err != nil {
		return nil, fmt.Errorf("perfpredict: %s: %w", nameOrPath, err)
	}
	m, err := spec.Machine()
	if err != nil {
		return nil, fmt.Errorf("perfpredict: %s: %w", nameOrPath, err)
	}
	return m, nil
}

// Unknown describes one symbolic variable of a prediction.
type Unknown struct {
	Name string
	// Kind is "bound" (loop bound / problem size), "probability"
	// (branching probability), or "opaque" (unanalyzable expression).
	Kind string
	// Source is the program text the variable stands for.
	Source string
}

// Prediction is a compile-time cost estimate.
type Prediction struct {
	// Cost is the total predicted cycles as a symbolic expression.
	Cost Expression
	// OneTime is the hoisted loop-invariant part, included in Cost.
	OneTime Expression
	// Memory is the cache/TLB miss share of Cost (§2.3: distinct-line
	// counts × the spec's miss penalties), included in Cost. It is
	// zero unless the target declares a memory hierarchy with nonzero
	// penalties; Cost − Memory is the in-core (scheduling) term.
	Memory Expression
	// Unknowns lists Cost's variables.
	Unknowns []Unknown

	prog *source.Program
	tbl  *sem.Table
	mach *Target
}

// Predict parses, analyzes and prices an F-lite program.
func Predict(src string, target *Target) (*Prediction, error) {
	return predictWithCache(src, target, aggregate.DefaultOptions(), nil)
}

// EvalAt substitutes concrete values for the unknowns and returns
// predicted cycles. Probability unknowns default to 0.5 when absent;
// other missing unknowns are an error.
func (p *Prediction) EvalAt(values map[string]float64) (float64, error) {
	return p.Cost.Eval(p.assignFor(values))
}

// EvalMemoryAt evaluates the memory-hierarchy component of the
// prediction at the same point (and with the same probability
// defaulting) as EvalAt. Zero for hierarchy-less targets.
func (p *Prediction) EvalMemoryAt(values map[string]float64) (float64, error) {
	return p.Memory.Eval(p.assignFor(values))
}

func (p *Prediction) assignFor(values map[string]float64) map[symexpr.Var]float64 {
	assign := map[symexpr.Var]float64{}
	for k, v := range values {
		assign[symexpr.Var(k)] = v
	}
	for _, u := range p.Unknowns {
		if _, ok := assign[symexpr.Var(u.Name)]; ok {
			continue
		}
		if u.Kind == "probability" {
			assign[symexpr.Var(u.Name)] = 0.5
		}
	}
	return assign
}

// Sensitivity ranks the unknowns by how strongly a ±delta relative
// perturbation around the nominal point moves the prediction — the
// basis for choosing run-time tests (§3.4 of the paper).
func (p *Prediction) Sensitivity(nominal map[string]float64, delta float64) ([]VarSensitivity, error) {
	assign := map[symexpr.Var]float64{}
	for k, v := range nominal {
		assign[symexpr.Var(k)] = v
	}
	for _, u := range p.Unknowns {
		if _, ok := assign[symexpr.Var(u.Name)]; !ok {
			if u.Kind == "probability" {
				assign[symexpr.Var(u.Name)] = 0.5
			} else {
				return nil, fmt.Errorf("perfpredict: no nominal value for unknown %q", u.Name)
			}
		}
	}
	raw, err := symexpr.Sensitivity(p.Cost, assign, delta)
	if err != nil {
		return nil, err
	}
	out := make([]VarSensitivity, len(raw))
	for i, s := range raw {
		out[i] = VarSensitivity{Name: string(s.Var), Swing: s.Perturbation, Relative: s.Relative}
	}
	return out, nil
}

// VarSensitivity is one variable's influence on the prediction.
type VarSensitivity struct {
	Name string
	// Swing is the absolute change of the prediction under a ±delta
	// perturbation.
	Swing float64
	// Relative is Swing divided by the nominal prediction.
	Relative float64
}

// Simulate executes the program on the cycle-level reference pipeline
// (the reproduction's stand-in for hardware runs) and returns dynamic
// cycles. args provides dummy-argument values.
func Simulate(src string, target *Target, args map[string]float64) (int64, error) {
	prog, err := source.Parse(src)
	if err != nil {
		return 0, err
	}
	tbl, err := sem.Analyze(prog)
	if err != nil {
		return 0, err
	}
	r := interp.New(prog, tbl, interp.Options{Machine: target})
	for k, v := range args {
		r.SetScalar(k, v)
	}
	if err := r.Run(); err != nil {
		return 0, err
	}
	return r.Cycles(), nil
}

// Bound is a closed interval of values an unknown can take.
type Bound struct{ Lo, Hi float64 }

// ComparisonVerdict mirrors the symbolic-comparison outcomes of §3.1.
type ComparisonVerdict int

const (
	VerdictUnknown ComparisonVerdict = iota
	VerdictFirstBetter
	VerdictEqual
	VerdictSecondBetter
	VerdictDepends
)

func (v ComparisonVerdict) String() string {
	return [...]string{"unknown", "first better", "equal", "second better", "depends on unknowns"}[v]
}

// Comparison is the result of comparing two predictions symbolically.
type Comparison struct {
	Verdict ComparisonVerdict
	// Difference is C(first) − C(second).
	Difference Expression
	// Crossovers are the parameter values (in Variable) where the
	// winner changes, when the difference is univariate.
	Variable   string
	Crossovers []float64
	// FirstShare is the fraction of the bounded region where the first
	// program is at least as cheap.
	FirstShare float64
}

// Compare decides which of two programs is faster over the given
// bounds on their unknowns, without guessing values when the answer is
// uniform (§3.1). Probability unknowns default to [0, 1] bounds.
func Compare(first, second *Prediction, bounds map[string]Bound) (Comparison, error) {
	b := symexpr.Bounds{}
	for k, v := range bounds {
		b[symexpr.Var(k)] = symexpr.Interval{Lo: v.Lo, Hi: v.Hi}
	}
	for _, pred := range []*Prediction{first, second} {
		for _, u := range pred.Unknowns {
			if _, ok := b[symexpr.Var(u.Name)]; !ok && u.Kind == "probability" {
				b[symexpr.Var(u.Name)] = symexpr.Interval{Lo: 0, Hi: 1}
			}
		}
	}
	cmp, err := symexpr.Compare(first.Cost, second.Cost, b)
	if err != nil {
		return Comparison{}, err
	}
	out := Comparison{
		Difference: cmp.Diff,
		Variable:   string(cmp.Var),
		FirstShare: cmp.FirstShare,
	}
	switch cmp.Verdict {
	case symexpr.VerdictFirstBetter:
		out.Verdict = VerdictFirstBetter
	case symexpr.VerdictEqual:
		out.Verdict = VerdictEqual
	case symexpr.VerdictSecondBetter:
		out.Verdict = VerdictSecondBetter
	case symexpr.VerdictDepends:
		out.Verdict = VerdictDepends
		if rt, ok := symexpr.DeriveRuntimeTest(cmp); ok {
			out.Crossovers = rt.Thresholds
		}
	}
	return out, nil
}

// OptimizeResult reports a performance-guided restructuring.
type OptimizeResult struct {
	// Source is the transformed program text.
	Source string
	// Transformations applied, in order (e.g. "unroll4@[0]").
	Transformations []string
	// PredictedBefore and PredictedAfter are cycles at the nominal
	// point.
	PredictedBefore, PredictedAfter float64
	// MemoryBefore and MemoryAfter are the memory-hierarchy share of
	// the respective predictions at the same nominal point — how much
	// of the cost (and of the win) came from cache behavior. Zero for
	// targets without an active hierarchy.
	MemoryBefore, MemoryAfter float64
	// Explored counts search states expanded.
	Explored int
	// SegCacheHits/SegCacheMisses count straight-line segment lookups
	// in the search's shared segment cache; NestCacheHits and
	// NestsRepriced count whole loop nests spliced from, respectively
	// priced into, the nest-level cost cache that makes candidate
	// re-pricing incremental.
	SegCacheHits, SegCacheMisses int
	NestCacheHits, NestsRepriced int
	// Bottleneck names the first-saturating functional-unit kind of the
	// chosen variant, with its utilization — the explain-mode diagnosis
	// run once on the winner. Empty when the search was cancelled or the
	// diagnosis could not run; the ranking never depends on it.
	Bottleneck     string
	BottleneckUtil float64
}

// Optimize searches transformation sequences (unroll, interchange,
// tile, fuse) for the cheapest predicted variant (§3.2). nominal
// assigns values to unknowns for ranking.
func Optimize(src string, target *Target, nominal map[string]float64) (OptimizeResult, error) {
	return OptimizeCtx(context.Background(), src, target, nominal, OptimizeOptions{})
}

// Library is an external-routine cost table (§3.5 of the paper):
// performance expressions parameterized by formal parameters,
// substituted with the actual parameters at each call site.
type Library = aggregate.LibraryTable

// BuildLibrary computes cost-table entries from routine sources,
// keyed by routine name.
func BuildLibrary(routines map[string]string, target *Target) (Library, error) {
	lib := Library{}
	for name, src := range routines {
		entry, err := aggregate.BuildLibraryEntry(src, target, aggregate.DefaultOptions())
		if err != nil {
			return nil, fmt.Errorf("library routine %s: %w", name, err)
		}
		lib[name] = entry
	}
	return lib, nil
}

// PredictWithLibrary predicts a program whose CALL statements resolve
// through the given library cost table.
func PredictWithLibrary(src string, target *Target, lib Library) (*Prediction, error) {
	opt := aggregate.DefaultOptions()
	opt.Library = lib
	return predictWithCache(src, target, opt, nil)
}
