// Command predict prices an F-lite program at compile time and prints
// the performance expression, its unknowns, per-block detail, and —
// optionally — the reference simulation for comparison.
//
// Usage:
//
//	predict [-machine NAME|spec.json] [-args n=1000,alpha=2]
//	        [-simulate] [-block] [-optimize [-v]] [-explain] file.f
//	predict [-machine M] [-args ...] [-parallel N] file1.f file2.f ...
//	predict -explore template.json [-args ...] [-target CYCLES] file1.f ...
//	predict -list-machines
//
// -machine accepts either a registered target name (see
// -list-machines; matching is case-insensitive) or a path to a
// machine-spec file, which is validated and loaded as a custom target.
// With no file, a built-in kernel name may be given via -kernel.
// Several files select batch mode: they are priced concurrently on a
// worker pool (bounded by -parallel, default GOMAXPROCS) sharing one
// segment-cost cache, and a one-line summary is printed per file.
//
// -explore names a machine-template file (see README "Design-space
// exploration"): every file (or the -kernel program) becomes one
// kernel of the workload, the template's lattice of machine
// configurations is swept, and the Pareto front over (hardware
// budget, per-kernel cost) is printed — with, when -target is given,
// the cheapest configuration meeting that total cycle budget. The
// template carries its own base machine, so -machine is ignored.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"perfpredict"
	"perfpredict/internal/kernels"
)

func main() {
	machineName := flag.String("machine", "POWER1", "registered target name or path to a machine-spec file")
	listMachines := flag.Bool("list-machines", false, "list registered target machines and exit")
	argList := flag.String("args", "", "comma-separated name=value assignments for unknowns")
	kernel := flag.String("kernel", "", "analyze a built-in kernel instead of a file")
	simulate := flag.Bool("simulate", false, "also run the reference pipeline simulation")
	block := flag.Bool("block", false, "analyze the innermost basic block (Figure 7 style)")
	optimize := flag.Bool("optimize", false, "search transformations for a faster variant")
	explainFlag := flag.Bool("explain", false, "diagnose the prediction: bottleneck unit, critical path, one-more-pipe what-if")
	verbose := flag.Bool("v", false, "with -optimize, also print search cache statistics")
	parallel := flag.Int("parallel", 0, "batch worker pool size (0 = GOMAXPROCS); used with multiple files")
	exploreFlag := flag.String("explore", "", "machine-template file: sweep its lattice and print the Pareto front")
	targetCost := flag.Float64("target", 0, "with -explore, cycle budget the best configuration must meet")
	flag.Parse()

	if *listMachines {
		for _, name := range perfpredict.TargetNames() {
			fmt.Println(name)
		}
		return
	}

	args := parseArgs(*argList)

	if *exploreFlag != "" {
		runExplore(*exploreFlag, *kernel, flag.Args(), args, *targetCost, *parallel)
		return
	}

	target, err := perfpredict.LoadTarget(*machineName)
	if err != nil {
		fatalf("%v", err)
	}

	if *kernel == "" && len(flag.Args()) > 1 {
		if *simulate || *block || *optimize || *explainFlag {
			fatalf("-simulate, -block, -optimize and -explain apply to a single input")
		}
		runBatch(flag.Args(), target, args, *parallel)
		return
	}

	src, err := loadSource(*kernel, flag.Args())
	if err != nil {
		fatalf("%v", err)
	}

	pred, err := perfpredict.Predict(src, target)
	if err != nil {
		fatalf("predict: %v", err)
	}
	fmt.Printf("machine:      %s\n", target.Name)
	fmt.Printf("cost:         %s cycles\n", pred.Cost)
	if !pred.Memory.IsZero() {
		fmt.Printf("  in-core:    %s\n", pred.Cost.Sub(pred.Memory))
		fmt.Printf("  memory:     %s\n", pred.Memory)
	}
	if c, ok := pred.OneTime.IsConst(); ok && c > 0 {
		fmt.Printf("one-time:     %.0f cycles (hoisted loop invariants)\n", c)
	}
	if len(pred.Unknowns) > 0 {
		fmt.Println("unknowns:")
		for _, u := range pred.Unknowns {
			fmt.Printf("  %-8s %-12s %s\n", u.Name, u.Kind, u.Source)
		}
	}
	if len(args) > 0 {
		v, err := pred.EvalAt(args)
		if err != nil {
			fatalf("eval: %v", err)
		}
		fmt.Printf("at %v:   %.0f cycles\n", args, v)
		if !pred.Memory.IsZero() {
			if mv, merr := pred.EvalMemoryAt(args); merr == nil {
				fmt.Printf("  memory:     %.0f cycles\n", mv)
			}
		}
	}
	if *block {
		rep, err := perfpredict.AnalyzeInnermostBlock(src, target)
		if err != nil {
			fatalf("block: %v", err)
		}
		fmt.Println("innermost block:")
		fmt.Printf("  instructions:   %d\n", rep.Instructions)
		fmt.Printf("  predicted:      %d cycles (%.2f/iter steady state)\n", rep.Predicted, rep.PredictedPerIter)
		fmt.Printf("  reference:      %d cycles (error %+.1f%%)\n", rep.Reference, rep.ErrorPct())
		fmt.Printf("  op-count model: %d cycles (%.1fx off)\n", rep.Baseline, rep.BaselineFactor())
		fmt.Printf("  critical unit:  %s (%.0f%% busy)\n", rep.CriticalUnit, 100*rep.Utilization)
		keys := make([]string, 0, len(rep.Ops))
		for k := range rep.Ops {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var parts []string
		for _, k := range keys {
			parts = append(parts, fmt.Sprintf("%s×%d", k, rep.Ops[k]))
		}
		fmt.Printf("  mix:            %s\n", strings.Join(parts, " "))
	}
	if *explainFlag {
		rep, err := perfpredict.ExplainCtx(context.Background(), src, target,
			perfpredict.ExplainOptions{Nominal: args})
		if err != nil {
			fatalf("explain: %v", err)
		}
		printExplain(rep)
	}
	if *simulate {
		cycles, err := perfpredict.Simulate(src, target, args)
		if err != nil {
			fatalf("simulate: %v", err)
		}
		fmt.Printf("simulated:    %d cycles\n", cycles)
		if len(args) > 0 {
			if v, err := pred.EvalAt(args); err == nil && cycles > 0 {
				fmt.Printf("pred/sim:     %.2f\n", v/float64(cycles))
			}
		}
	}
	if *optimize {
		res, err := perfpredict.OptimizeCtx(context.Background(), src, target, args, perfpredict.OptimizeOptions{})
		if err != nil {
			fatalf("optimize: %v", err)
		}
		fmt.Printf("optimize:     %.0f -> %.0f cycles (%d states)\n", res.PredictedBefore, res.PredictedAfter, res.Explored)
		if *verbose {
			fmt.Printf("nest cache:   %d hits, %d nests re-priced\n", res.NestCacheHits, res.NestsRepriced)
			fmt.Printf("seg cache:    %d hits, %d misses\n", res.SegCacheHits, res.SegCacheMisses)
		}
		if len(res.Transformations) > 0 {
			fmt.Printf("sequence:     %s\n", strings.Join(res.Transformations, ", "))
			fmt.Println("transformed program:")
			fmt.Println(indent(res.Source, "  "))
		} else {
			fmt.Println("no improving transformation found")
		}
	}
}

// printExplain renders an ExplainReport as the -explain transcript:
// the program-level verdict, then each nest's unit pressure and
// binding critical path, then the one-more-pipe experiment.
func printExplain(rep *perfpredict.ExplainReport) {
	fmt.Println("explain:")
	fmt.Printf("  bottleneck:   %s (%.0f%% utilized)\n", rep.Bottleneck, 100*rep.BottleneckUtil)
	memShare := 0.0
	if rep.Cycles > 0 {
		memShare = 100 * rep.MemoryCycles / rep.Cycles
	}
	if rep.MemoryBound {
		fmt.Printf("  memory-bound: yes (memory %.0f%% of cost)\n", memShare)
	} else {
		fmt.Printf("  memory-bound: no (memory %.0f%% of cost)\n", memShare)
	}
	for _, n := range rep.Nests {
		fmt.Printf("  nest %s (weight %.0f%%, %d instrs, %d cycles/iter):\n",
			n.Label, 100*n.Weight, n.Instructions, n.BlockCost)
		var units []string
		for _, k := range n.Kinds {
			units = append(units, fmt.Sprintf("%s %.0f%%", k.Kind, 100*k.Utilization))
		}
		sat := "never saturated"
		if n.SaturatedAt >= 0 {
			sat = fmt.Sprintf("saturated from slot %d", n.SaturatedAt)
		}
		fmt.Printf("    bottleneck: %s (%.0f%% busy), %s\n", n.Bottleneck, 100*n.BottleneckUtil, sat)
		fmt.Printf("    units:      %s\n", strings.Join(units, "  "))
		fmt.Printf("    critical path (%d of %d cycles, dep height %d):\n",
			n.PathCycles, n.BlockCost, n.DepHeight)
		for _, s := range n.Path {
			via := ""
			switch s.Edge {
			case "resource":
				via = "  waits on " + s.Unit
			case "dep":
				via = "  after dep"
			case "dispatch":
				via = "  after dispatch"
			}
			fmt.Printf("      #%-3d %-8s @%d..%d%s\n", s.Instr, s.Op, s.Start, s.Finish, via)
		}
	}
	if w := rep.WhatIf; w != nil {
		fmt.Printf("  one more %s pipe (%d total): %.0f cycles, %.2fx speedup\n",
			w.Unit, w.Pipes, w.Cycles, w.Speedup)
	}
}

// runExplore sweeps a machine-template lattice over the given kernels
// and prints the Pareto front, the pruned count, the best
// configuration, and the slowest/fastest span — the design-space view
// of the paper's model: instead of predicting one program on one
// machine, the machine space is searched.
func runExplore(tplPath, kernel string, files []string, args map[string]float64, target float64, workers int) {
	data, err := os.ReadFile(tplPath)
	if err != nil {
		fatalf("%v", err)
	}
	tpl, err := perfpredict.ParseMachineTemplate(data)
	if err != nil {
		fatalf("%v", err)
	}
	var ks []perfpredict.ExploreKernel
	if kernel != "" {
		k, err := kernels.Get(kernel)
		if err != nil {
			fatalf("%v", err)
		}
		ks = append(ks, perfpredict.ExploreKernel{Name: kernel, Source: k.Src})
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			fatalf("%v", err)
		}
		ks = append(ks, perfpredict.ExploreKernel{Name: f, Source: string(src)})
	}
	if len(ks) == 0 {
		fatalf("usage: predict -explore template.json file.f ... (or -kernel name)")
	}
	res, err := perfpredict.ExploreCtx(context.Background(), tpl, ks,
		perfpredict.ExploreOptions{Workers: workers, Args: args, Target: target})
	if err != nil {
		fatalf("explore: %v", err)
	}
	fmt.Printf("template:     %s (%d configurations, %d kernels)\n", tplPath, res.Cells, len(res.Kernels))
	fmt.Println("front:")
	fmt.Printf("  %-44s %10s %14s\n", "configuration", "budget", "total cycles")
	for _, c := range res.Front {
		fmt.Printf("  %-44s %10.1f %14.0f\n", c.Name, c.Budget, c.Total)
	}
	fmt.Printf("pruned:       %d dominated configurations\n", len(res.Pruned))
	// Span over the whole lattice, not just the front: how much the
	// design choice is worth for this workload.
	all := res.Front
	slow, fast := &all[0], &all[0]
	for i := range all {
		if all[i].Total > slow.Total {
			slow = &all[i]
		}
		if all[i].Total < fast.Total {
			fast = &all[i]
		}
	}
	var slowName string
	slowTotal := slow.Total
	slowName = slow.Name
	for i := range res.Pruned {
		if res.Pruned[i].Total > slowTotal {
			slowTotal = res.Pruned[i].Total
			slowName = res.Pruned[i].Name
		}
	}
	if fast.Total > 0 {
		fmt.Printf("span:         %.2fx (%s vs %s)\n", slowTotal/fast.Total, slowName, fast.Name)
	}
	if target > 0 {
		if res.Best != nil {
			fmt.Printf("best:         %s (budget %.1f, %.0f cycles <= target %.0f)\n",
				res.Best.Name, res.Best.Budget, res.Best.Total, target)
		} else {
			fmt.Printf("best:         no configuration meets target %.0f cycles\n", target)
		}
	} else if res.Best != nil {
		fmt.Printf("fastest:      %s (budget %.1f, %.0f cycles)\n",
			res.Best.Name, res.Best.Budget, res.Best.Total)
	}
}

// runBatch prices every file concurrently through PredictBatchCtx and
// prints one summary line per file, index-aligned with the inputs.
func runBatch(files []string, target *perfpredict.Target, args map[string]float64, workers int) {
	srcs := make([]string, len(files))
	for i, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			fatalf("%v", err)
		}
		srcs[i] = string(data)
	}
	cache := perfpredict.NewSegmentCache()
	preds, errs := perfpredict.PredictBatchCtx(context.Background(), srcs, target, perfpredict.BatchOptions{Workers: workers, Cache: cache})
	fmt.Printf("machine:      %s\n", target.Name)
	failed := 0
	for i, f := range files {
		if errs[i] != nil {
			fmt.Printf("%-24s error: %v\n", f+":", errs[i])
			failed++
			continue
		}
		fmt.Printf("%-24s %s cycles", f+":", preds[i].Cost)
		if len(args) > 0 {
			if v, err := preds[i].EvalAt(args); err == nil {
				fmt.Printf(" = %.0f at %v", v, args)
			}
		}
		fmt.Println()
	}
	hits, misses := cache.Stats()
	fmt.Printf("segment cache: %d hits, %d misses\n", hits, misses)
	if failed > 0 {
		os.Exit(1)
	}
}

func loadSource(kernel string, args []string) (string, error) {
	if kernel != "" {
		k, err := kernels.Get(kernel)
		if err != nil {
			names := []string{}
			for _, kk := range kernels.All() {
				names = append(names, kk.Name)
			}
			return "", fmt.Errorf("%v (available: %s)", err, strings.Join(names, ", "))
		}
		return k.Src, nil
	}
	if len(args) != 1 {
		return "", fmt.Errorf("usage: predict [flags] file.f (or -kernel name)")
	}
	data, err := os.ReadFile(args[0])
	if err != nil {
		return "", err
	}
	return string(data), nil
}

func parseArgs(s string) map[string]float64 {
	out := map[string]float64{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			fatalf("bad assignment %q", part)
		}
		v, err := strconv.ParseFloat(kv[1], 64)
		if err != nil {
			fatalf("bad value in %q", part)
		}
		out[strings.TrimSpace(kv[0])] = v
	}
	return out
}

func indent(s, pad string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = pad + lines[i]
	}
	return strings.Join(lines, "\n")
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "predict: "+format+"\n", args...)
	os.Exit(1)
}
