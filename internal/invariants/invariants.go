// Package invariants is the metamorphic differential-fuzzing harness:
// it draws random-but-valid inputs from progen, runs the production
// estimators against the exact oracle and against transformed twins of
// the same input, and reports every broken invariant as a Violation
// carrying the seed that reproduces it.
//
// The invariant suite, by input kind:
//
// Blocks (CheckBlock):
//
//   - oracle-bound: tetris.Estimate's makespan is never below the
//     exact optimum (the greedy schedule is in the oracle's search
//     space, so this holds by construction — a violation means one of
//     the two placers diverged from the model).
//   - greedy-differential: oracle.GreedyInOrder, an independent
//     reimplementation of the placement rule, reproduces
//     tetris.Estimate exactly (cost, extent, per-op issue slots, and
//     cost-block shape).
//   - determinism: two calls to Estimate on the same input are
//     identical (guards the sync.Pool scratch reuse).
//   - commute-srcs: flipping the operands of commutative ops leaves
//     the estimate unchanged.
//   - rename-regs: bijective register renaming leaves the estimate
//     unchanged.
//   - sink-swap: swapping adjacent same-op, same-source, same-deps,
//     consumer-free instructions leaves the estimate unchanged.
//   - topo-perm: the exact optimum is invariant under any
//     dependence-respecting reordering of the block (only asserted
//     when both searches complete within budget).
//   - explain-inert / explain-utilization / explain-path /
//     explain-dep-height / explain-what-if: EstimateExplained's
//     diagnosis is inert and self-consistent (see explain.go for the
//     full list; one-more-pipe monotonicity is deliberately NOT
//     asserted — Graham's anomaly).
//
// Specs (CheckSpec):
//
//   - roundtrip-fixed-point: Encode ∘ ParseSpec is the identity on
//     canonical encodings.
//   - specof-fingerprint: Spec → Machine → SpecOf → Machine preserves
//     the content fingerprint and the estimates.
//   - mutation-caught: every deliberately broken spec from
//     progen.InvalidMutations is rejected by Validate.
//
// Programs (CheckProgram):
//
//   - batch-identical: PredictBatchCtx with Workers=1, Workers=N, and a
//     shared warm cache all reproduce serial Predict byte-for-byte.
//   - incremental-identical: PriceIncremental over warm caches after
//     a random transformation equals a from-scratch re-pricing.
//   - result-cache-identical (CheckResultCache): the serving stack's
//     response bytes with the result cache disabled, cold, and warm
//     are identical on generated programs × generated inline specs.
//   - explain-inert-program / explain-cycles-consistent /
//     explain-report-sane (CheckExplain): program-level ExplainCtx
//     succeeds wherever Predict does, leaves Predict byte-identical,
//     and reports cycles that are Predict's own expressions evaluated
//     at explain's default point.
//
// Machine templates and design-space sweeps (CheckExplore):
//
//   - expand-valid / expand-deterministic / expand-duplicate-free:
//     template expansion yields a canonical lattice of valid,
//     fingerprint-distinct machines, identically every time.
//   - lattice-equals-expand: a compiled template's cells equal the
//     full builds of the expanded specs.
//   - explore-deterministic: sweep results are byte-identical across
//     worker counts and cache warmth.
//   - front-nondominated / pruned-witnessed / frontier-partition /
//     best-brute-force: the Pareto front is audited against the
//     measured-dominance definition — never a structural "more
//     resources" ordering, which Graham's anomaly forbids.
//
// Memory hierarchies (CheckMemory):
//
//   - memory-monotone-size: growing a cache level never raises the
//     predicted cost.
//   - memory-monotone-penalty: shrinking miss penalties never raises
//     the predicted cost.
//   - memory-zero-identical: an all-zero-penalty hierarchy prices
//     byte-identically to no hierarchy at all.
package invariants

import (
	"context"
	"fmt"
	"reflect"

	perfpredict "perfpredict"
	"perfpredict/internal/aggregate"
	"perfpredict/internal/machine"
	"perfpredict/internal/oracle"
	"perfpredict/internal/progen"
	"perfpredict/internal/sem"
	"perfpredict/internal/source"
	"perfpredict/internal/tetris"
	"perfpredict/internal/xform"
)

// MaxApproxExactRatio pins how far the greedy placement may drift
// above the exact optimum on the gating corpus. Measured max over
// 5000 seeds is exactly 2.0; the pin leaves headroom for generator
// drift while still catching a systematically broken placer.
// cmd/fuzzcheck fails when a run exceeds it.
const MaxApproxExactRatio = 2.25

// Violation is one broken invariant, reproducible from Seed.
type Violation struct {
	Invariant string
	Seed      int64
	Detail    string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s (seed %d): %s", v.Invariant, v.Seed, v.Detail)
}

// Config tunes the per-seed checks.
type Config struct {
	// NodeBudget bounds the oracle search per block (default 1<<18).
	NodeBudget int
	// MaxOps caps the block size the oracle attempts (default 20).
	MaxOps int
}

func (c *Config) defaults() {
	if c.NodeBudget == 0 {
		c.NodeBudget = 1 << 18
	}
	if c.MaxOps == 0 {
		c.MaxOps = 20
	}
}

// BlockStats aggregates oracle outcomes across CheckBlock calls.
type BlockStats struct {
	// Proven counts samples where the oracle completed its search.
	Proven int
	// Truncated counts samples where the node budget ran out.
	Truncated int
	// MaxRatio is the largest approx/exact makespan ratio observed
	// over proven samples.
	MaxRatio float64
}

func (s *BlockStats) merge(o BlockStats) {
	s.Proven += o.Proven
	s.Truncated += o.Truncated
	if o.MaxRatio > s.MaxRatio {
		s.MaxRatio = o.MaxRatio
	}
}

// CheckBlock runs the straight-line-block invariant suite for one
// seed: a generated machine prices a generated block, compared against
// the exact oracle and against metamorphic twins.
func CheckBlock(seed int64, cfg Config) ([]Violation, BlockStats) {
	cfg.defaults()
	var vs []Violation
	var stats BlockStats
	fail := func(inv, format string, a ...any) {
		vs = append(vs, Violation{Invariant: inv, Seed: seed, Detail: fmt.Sprintf(format, a...)})
	}

	r := progen.NewRand(seed)
	spec := progen.GenSpec(r)
	m, err := spec.Machine()
	if err != nil {
		fail("gen-spec-valid", "generated spec rejected: %v", err)
		return vs, stats
	}
	b := progen.GenBlock(r, progen.BlockConfig{AllowControl: true})

	for _, mayAlias := range []bool{false, true} {
		topt := tetris.Options{MayAlias: mayAlias}
		oopt := oracle.Options{MayAlias: mayAlias, NodeBudget: cfg.NodeBudget, MaxOps: cfg.MaxOps}
		approx, err := tetris.Estimate(m, b, topt)
		if err != nil {
			fail("estimate-total", "Estimate failed on a valid input: %v", err)
			continue
		}

		// determinism: pooled scratch must not leak across calls.
		again, err := tetris.Estimate(m, b, topt)
		if err != nil || !reflect.DeepEqual(approx, again) {
			fail("determinism", "mayAlias=%v: second Estimate differs: %+v vs %+v (err %v)",
				mayAlias, approx, again, err)
		}

		// greedy-differential: independent placer reimplementation.
		greedy, err := oracle.GreedyInOrder(m, b, oopt)
		if err != nil {
			fail("greedy-differential", "GreedyInOrder failed: %v", err)
		} else if greedy.Cost != approx.Cost || greedy.Start != approx.Start ||
			greedy.End != approx.End ||
			!reflect.DeepEqual(greedy.PlaceTime, approx.PlaceTime) ||
			!reflect.DeepEqual(greedy.Shape, approx.Shape) {
			fail("greedy-differential",
				"mayAlias=%v: greedy {cost %d [%d,%d] place %v} != tetris {cost %d [%d,%d] place %v}",
				mayAlias, greedy.Cost, greedy.Start, greedy.End, greedy.PlaceTime,
				approx.Cost, approx.Start, approx.End, approx.PlaceTime)
		}

		// oracle-bound (+ ratio bookkeeping).
		exact, err := oracle.Pack(m, b, oopt)
		exactOK := err == nil
		if err == nil {
			if exact.Proven {
				stats.Proven++
				if exact.Cost > 0 {
					if ratio := float64(approx.Cost) / float64(exact.Cost); ratio > stats.MaxRatio {
						stats.MaxRatio = ratio
					}
				}
			} else {
				stats.Truncated++
			}
			if approx.Cost < exact.Cost {
				fail("oracle-bound", "mayAlias=%v: approx %d < exact %d (proven=%v)",
					mayAlias, approx.Cost, exact.Cost, exact.Proven)
			}

			// topo-perm: the optimum ignores the presentation order.
			perm := progen.TopoShuffle(r, b, mayAlias)
			permExact, err := oracle.Pack(m, perm, oopt)
			if err != nil {
				fail("topo-perm", "oracle failed on permuted block: %v", err)
			} else if exact.Proven && permExact.Proven && exact.Cost != permExact.Cost {
				fail("topo-perm", "mayAlias=%v: exact cost %d became %d after topo shuffle",
					mayAlias, exact.Cost, permExact.Cost)
			}
		}

		// commute-srcs.
		if sw, err := tetris.Estimate(m, progen.SwapCommutativeSrcs(b), topt); err != nil {
			fail("commute-srcs", "Estimate failed after swap: %v", err)
		} else if !reflect.DeepEqual(approx, sw) {
			fail("commute-srcs", "mayAlias=%v: cost %d -> %d after commutative operand swap",
				mayAlias, approx.Cost, sw.Cost)
		}

		// rename-regs.
		if rn, err := tetris.Estimate(m, progen.RenameRegs(r, b), topt); err != nil {
			fail("rename-regs", "Estimate failed after rename: %v", err)
		} else if rn.Cost != approx.Cost || rn.Start != approx.Start || rn.End != approx.End ||
			!reflect.DeepEqual(rn.Shape, approx.Shape) {
			fail("rename-regs", "mayAlias=%v: cost %d -> %d after bijective renaming",
				mayAlias, approx.Cost, rn.Cost)
		}

		// sink-swap (when the block has an eligible pair).
		if swapped, ok := progen.SwapAdjacentSinks(b, mayAlias); ok {
			if ss, err := tetris.Estimate(m, swapped, topt); err != nil {
				fail("sink-swap", "Estimate failed after sink swap: %v", err)
			} else if ss.Cost != approx.Cost || ss.Start != approx.Start || ss.End != approx.End ||
				!reflect.DeepEqual(ss.Shape, approx.Shape) {
				fail("sink-swap", "mayAlias=%v: cost %d -> %d after adjacent sink swap",
					mayAlias, approx.Cost, ss.Cost)
			}
		}

		// explain suite: diagnosis must be inert and self-consistent
		// (see explain.go for the invariant list).
		checkExplainBlock(m, b, topt, approx, exact, exactOK, fail)
	}
	return vs, stats
}

// CheckSpec runs the machine-description invariant suite for one seed.
func CheckSpec(seed int64) []Violation {
	var vs []Violation
	fail := func(inv, format string, a ...any) {
		vs = append(vs, Violation{Invariant: inv, Seed: seed, Detail: fmt.Sprintf(format, a...)})
	}
	r := progen.NewRand(seed)
	spec := progen.GenSpec(r)

	enc1, err := spec.Encode()
	if err != nil {
		fail("roundtrip-fixed-point", "Encode: %v", err)
		return vs
	}
	back, err := machine.ParseSpec(enc1)
	if err != nil {
		fail("roundtrip-fixed-point", "ParseSpec rejected own encoding: %v", err)
		return vs
	}
	enc2, err := back.Encode()
	if err != nil || string(enc1) != string(enc2) {
		fail("roundtrip-fixed-point", "Encode∘ParseSpec is not the identity (err %v)", err)
	}

	m, err := spec.Machine()
	if err != nil {
		fail("gen-spec-valid", "generated spec rejected: %v", err)
		return vs
	}
	m2, err := machine.SpecOf(m).Machine()
	if err != nil {
		fail("specof-fingerprint", "SpecOf(m).Machine(): %v", err)
	} else {
		if m.Fingerprint() != m2.Fingerprint() {
			fail("specof-fingerprint", "fingerprint changed across Spec→Machine→Spec→Machine")
		}
		b := progen.GenBlock(progen.NewRand(seed+1), progen.BlockConfig{})
		r1, err1 := tetris.Estimate(m, b, tetris.Options{})
		r2, err2 := tetris.Estimate(m2, b, tetris.Options{})
		if err1 != nil || err2 != nil || !reflect.DeepEqual(r1, r2) {
			fail("specof-fingerprint", "estimates differ across round-trip: %+v vs %+v (errs %v, %v)",
				r1, r2, err1, err2)
		}
	}

	for _, mut := range progen.InvalidMutations(spec) {
		if err := mut.Spec.Validate(); err == nil {
			fail("mutation-caught", "mutation %q slipped through Validate", mut.Name)
		}
	}
	return vs
}

// CheckProgram runs the whole-pipeline invariant suite for one seed:
// batch/caching/concurrency equivalences and the incremental
// re-pricing equivalence, on generated F-lite programs.
func CheckProgram(seed int64) []Violation {
	var vs []Violation
	fail := func(inv, format string, a ...any) {
		vs = append(vs, Violation{Invariant: inv, Seed: seed, Detail: fmt.Sprintf(format, a...)})
	}
	r := progen.NewRand(seed)
	srcs := make([]string, 3)
	for i := range srcs {
		srcs[i] = progen.GenProgram(r, progen.ProgramConfig{AllowIf: true, AllowSubroutine: true})
	}

	// Alternate between a generated target and the builtins.
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

	serial := make([]*perfpredict.Prediction, len(srcs))
	for i, src := range srcs {
		p, err := perfpredict.Predict(src, target)
		if err != nil {
			fail("predict-total", "Predict failed on generated program: %v\n%s", err, src)
			return vs
		}
		serial[i] = p
	}

	check := func(name string, opt perfpredict.BatchOptions) {
		preds, errs := perfpredict.PredictBatchCtx(context.Background(), srcs, target, opt)
		for i := range srcs {
			if errs[i] != nil {
				fail("batch-identical", "%s: program %d failed: %v", name, i, errs[i])
				continue
			}
			if preds[i].Cost.String() != serial[i].Cost.String() ||
				preds[i].OneTime.String() != serial[i].OneTime.String() {
				fail("batch-identical", "%s: program %d cost %q != serial %q",
					name, i, preds[i].Cost.String(), serial[i].Cost.String())
			}
		}
	}
	check("workers=1", perfpredict.BatchOptions{Workers: 1})
	check("workers=4", perfpredict.BatchOptions{Workers: 4})
	warm := perfpredict.NewSegmentCache()
	check("shared-cache-cold", perfpredict.BatchOptions{Workers: 4, Cache: warm})
	check("shared-cache-warm", perfpredict.BatchOptions{Workers: 4, Cache: warm})

	vs = append(vs, checkIncremental(seed, r, srcs[0], target)...)
	return vs
}

// checkIncremental applies one random legal transformation to the
// program and asserts PriceIncremental over warm caches equals a
// from-scratch re-pricing of the transformed variant.
func checkIncremental(seed int64, r interface{ Intn(int) int }, src string, m *machine.Machine) []Violation {
	var vs []Violation
	fail := func(inv, format string, a ...any) {
		vs = append(vs, Violation{Invariant: inv, Seed: seed, Detail: fmt.Sprintf(format, a...)})
	}
	prog, err := source.Parse(src)
	if err != nil {
		fail("incremental-identical", "parse: %v", err)
		return vs
	}
	tbl, err := sem.Analyze(prog)
	if err != nil {
		fail("incremental-identical", "analyze: %v", err)
		return vs
	}
	moves := xform.Moves(prog, xform.SearchOptions{
		Machine: m, UnrollFactors: []int{2, 4}, TileSizes: []int{16},
	})
	if len(moves) == 0 {
		return vs
	}
	move := moves[r.Intn(len(moves))]
	variant, err := xform.Apply(prog, move)
	if err != nil {
		// Structural filters are cheap by design; an illegal move is
		// not a violation.
		return vs
	}
	vtbl, err := sem.Analyze(variant)
	if err != nil {
		fail("incremental-identical", "analyze after %s: %v", move, err)
		return vs
	}

	opt := aggregate.DefaultOptions()
	caches := aggregate.Caches{Seg: aggregate.NewSegCache(), Nest: aggregate.NewNestCache()}
	// Warm the caches on the original program, then re-price the
	// variant incrementally with the move's path as the dirty hint.
	if _, err := aggregate.PriceIncremental(prog, nil, caches, tbl, m, opt); err != nil {
		fail("incremental-identical", "warm pricing: %v", err)
		return vs
	}
	inc, err := aggregate.PriceIncremental(variant, [][]int{move.Path}, caches, vtbl, m, opt)
	if err != nil {
		fail("incremental-identical", "incremental pricing after %s: %v", move, err)
		return vs
	}
	full, err := aggregate.New(vtbl, m, opt).Program(variant)
	if err != nil {
		fail("incremental-identical", "full pricing after %s: %v", move, err)
		return vs
	}
	if inc.Cost.String() != full.Cost.String() || inc.OneTime.String() != full.OneTime.String() {
		fail("incremental-identical", "after %s: incremental %q != full %q",
			move, inc.Cost.String(), full.Cost.String())
	}
	return vs
}

// Summary is the outcome of a corpus run.
type Summary struct {
	// Samples is the number of seeds checked.
	Samples int
	// BlockStats aggregates oracle outcomes.
	BlockStats
	// Violations holds every broken invariant, seed attached.
	Violations []Violation
}

// Run executes the full suite over seeds baseSeed..baseSeed+n-1.
// Block and spec checks run on every seed; the (much costlier)
// whole-pipeline program checks run on every eighth.
func Run(n int, baseSeed int64, cfg Config) Summary {
	var s Summary
	for i := 0; i < n; i++ {
		seed := baseSeed + int64(i)
		bvs, stats := CheckBlock(seed, cfg)
		s.BlockStats.merge(stats)
		s.Violations = append(s.Violations, bvs...)
		s.Violations = append(s.Violations, CheckSpec(seed)...)
		if i%8 == 0 {
			s.Violations = append(s.Violations, CheckProgram(seed)...)
			s.Violations = append(s.Violations, CheckResultCache(seed)...)
			s.Violations = append(s.Violations, CheckMemory(seed)...)
			s.Violations = append(s.Violations, CheckExplain(seed)...)
			s.Violations = append(s.Violations, CheckExplore(seed)...)
		}
		s.Samples++
	}
	return s
}
