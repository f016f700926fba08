// Command fuzzcheck runs the metamorphic differential-fuzzing harness
// (internal/invariants) over a deterministic seed range: generated
// machines price generated blocks against an exact oracle, generated
// specs round-trip and reject their broken mutations, and generated
// programs exercise the batch/cache/incremental equivalences. Every
// violation prints the seed that reproduces it, and any violation —
// including an approx/exact ratio above the pinned bound — makes the
// exit status nonzero, so CI can gate on a fixed corpus.
//
// Usage:
//
//	fuzzcheck [-n 1000] [-seed 1] [-maxops 20] [-budget 262144]
//	          [-json BENCH_fuzz.json] [-emit-corpus DIR] [-v]
//
// -json writes a machine-readable summary (corpus size, oracle-proven
// counts, max approx/exact ratio, violation counts by invariant).
// -emit-corpus regenerates testdata/corpus: F-lite programs and spec
// files for the same seeds the harness uses, plus golden predictions
// and golden explain digests (bottleneck, critical-path span, top
// utilizations) of every program on every builtin and corpus machine.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	perfpredict "perfpredict"
	"perfpredict/internal/invariants"
	"perfpredict/internal/progen"
)

func main() {
	var (
		n      = flag.Int("n", 1000, "number of seeds to check")
		seed   = flag.Int64("seed", 1, "base seed (seeds run seed..seed+n-1)")
		maxOps = flag.Int("maxops", 0, "oracle block-size cap (0 = default)")
		budget = flag.Int("budget", 0, "oracle node budget per block (0 = default)")
		jsonTo = flag.String("json", "", "write a JSON summary to this file")
		emit   = flag.String("emit-corpus", "", "regenerate the corpus under this directory and exit")
		verb   = flag.Bool("v", false, "print per-invariant counts")
	)
	flag.Parse()

	if *emit != "" {
		if err := emitCorpus(*emit); err != nil {
			fmt.Fprintf(os.Stderr, "fuzzcheck: %v\n", err)
			os.Exit(1)
		}
		return
	}

	cfg := invariants.Config{MaxOps: *maxOps, NodeBudget: *budget}
	s := invariants.Run(*n, *seed, cfg)

	byInvariant := map[string]int{}
	for _, v := range s.Violations {
		byInvariant[v.Invariant]++
		fmt.Fprintf(os.Stderr, "VIOLATION %s\n", v)
	}
	if s.MaxRatio > invariants.MaxApproxExactRatio {
		byInvariant["ratio-bound"]++
		fmt.Fprintf(os.Stderr, "VIOLATION ratio-bound: approx/exact %.4f exceeds pinned %.2f\n",
			s.MaxRatio, invariants.MaxApproxExactRatio)
	}

	fmt.Printf("fuzzcheck: %d seeds (base %d): %d violations; oracle proved %d blocks (%d truncated), max approx/exact %.4f (bound %.2f)\n",
		s.Samples, *seed, len(s.Violations), s.Proven, s.Truncated, s.MaxRatio, invariants.MaxApproxExactRatio)
	if *verb {
		names := make([]string, 0, len(byInvariant))
		for k := range byInvariant {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Printf("  %-24s %d\n", k, byInvariant[k])
		}
	}

	if *jsonTo != "" {
		summary := map[string]any{
			"samples":                s.Samples,
			"base_seed":              *seed,
			"oracle_proven":          s.Proven,
			"oracle_truncated":       s.Truncated,
			"max_approx_exact_ratio": s.MaxRatio,
			"ratio_bound":            invariants.MaxApproxExactRatio,
			"violations_total":       len(s.Violations) + byInvariant["ratio-bound"],
			"violations":             byInvariant,
		}
		data, err := json.MarshalIndent(summary, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonTo, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "fuzzcheck: writing %s: %v\n", *jsonTo, err)
			os.Exit(1)
		}
	}

	if len(s.Violations) > 0 || s.MaxRatio > invariants.MaxApproxExactRatio {
		os.Exit(1)
	}
}

// corpus dimensions: program seeds 1..nPrograms, spec seeds
// 1..nSpecs. Goldens cover every program on every builtin plus every
// corpus machine.
const (
	nPrograms = 50
	nSpecs    = 5
)

func emitCorpus(dir string) error {
	progDir := filepath.Join(dir, "programs")
	specDir := filepath.Join(dir, "specs")
	for _, d := range []string{progDir, specDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return err
		}
	}

	type targetEnt struct {
		name string
		t    *perfpredict.Target
	}
	var targets []targetEnt
	for _, name := range perfpredict.TargetNames() {
		t, err := perfpredict.LoadTarget(name)
		if err != nil {
			return fmt.Errorf("builtin %s: %w", name, err)
		}
		targets = append(targets, targetEnt{name, t})
	}
	for i := 1; i <= nSpecs; i++ {
		spec := progen.GenSpec(progen.NewRand(int64(i)))
		data, err := spec.Encode()
		if err != nil {
			return err
		}
		path := filepath.Join(specDir, fmt.Sprintf("spec%02d.json", i))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return err
		}
		m, err := spec.Machine()
		if err != nil {
			return fmt.Errorf("corpus spec %d: %w", i, err)
		}
		targets = append(targets, targetEnt{fmt.Sprintf("spec%02d", i), m})
	}

	// golden[program][target] = symbolic cost expression;
	// goldenExplain[program][target] = explain summary digest.
	golden := map[string]map[string]string{}
	goldenExplain := map[string]map[string]string{}
	for i := 1; i <= nPrograms; i++ {
		src := progen.GenProgram(progen.NewRand(int64(i)),
			progen.ProgramConfig{AllowIf: true, AllowSubroutine: true})
		name := fmt.Sprintf("prog%03d.f", i)
		if err := os.WriteFile(filepath.Join(progDir, name), []byte(src), 0o644); err != nil {
			return err
		}
		row := map[string]string{}
		erow := map[string]string{}
		for _, tgt := range targets {
			p, err := perfpredict.Predict(src, tgt.t)
			if err != nil {
				return fmt.Errorf("%s on %s: %w", name, tgt.name, err)
			}
			row[tgt.name] = p.Cost.String()
			rep, err := perfpredict.ExplainCtx(context.Background(), src, tgt.t,
				perfpredict.ExplainOptions{SkipWhatIf: true})
			if err != nil {
				return fmt.Errorf("%s on %s: explain: %w", name, tgt.name, err)
			}
			erow[tgt.name] = rep.Summary()
		}
		golden[name] = row
		goldenExplain[name] = erow
	}
	for file, table := range map[string]map[string]map[string]string{
		"golden.json":         golden,
		"golden_explain.json": goldenExplain,
	} {
		data, err := json.MarshalIndent(table, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, file), append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	fmt.Printf("fuzzcheck: wrote %d programs, %d specs, and prediction+explain goldens for %d targets under %s\n",
		nPrograms, nSpecs, len(targets), dir)
	return nil
}
