// Package explain turns predictions into diagnoses: where a program's
// cycles go, which functional unit saturates first, which chain of
// dependence and resource edges binds each kernel's schedule, and what
// one more pipe of the bottleneck kind would buy. It is the program-
// level aggregation of tetris.EstimateExplained — one diagnosis per
// innermost straight-line loop nest, weighted by each nest's share of
// the predicted cycles — shared by the public perfpredict.ExplainCtx API,
// the predictd /v1/explain endpoint, and the transformation search's
// per-candidate bottleneck reporting.
//
// Explanation never feeds back into prediction: every function here
// only reads the same placements Estimate commits, so enabling it
// cannot perturb Predict/PredictBatchCtx/OptimizeCtx output.
package explain

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"perfpredict/internal/aggregate"
	"perfpredict/internal/lower"
	"perfpredict/internal/machine"
	"perfpredict/internal/sem"
	"perfpredict/internal/source"
	"perfpredict/internal/tetris"
)

// Options tune a program diagnosis. The zero value includes the
// one-more-pipe experiment. Pricing itself takes no options: the
// report lowers and prices exactly as Predict does.
type Options struct {
	// Nominal assigns values to unknowns when evaluating shares and
	// speedups; missing unknowns take the filled evaluation point of
	// aggregate.EvalPoint, as in the restructuring search's ranking.
	Nominal map[string]float64
	// SkipWhatIf suppresses the one-more-pipe experiment (which costs
	// one extra whole-program prediction).
	SkipWhatIf bool
}

// KindUtil is one unit kind's pressure, per nest or program-wide.
type KindUtil struct {
	Kind        string  `json:"kind"`
	Pipes       int     `json:"pipes"`
	Utilization float64 `json:"utilization"`
}

// PathStep is one instruction on a nest's binding critical path.
type PathStep struct {
	Instr  int    `json:"instr"`
	Op     string `json:"op"`
	Start  int    `json:"start"`
	Finish int    `json:"finish"`
	// Edge names the constraint chaining this step to the previous
	// one: "dep", "resource", "dispatch", or "" for the path origin.
	Edge string `json:"edge,omitempty"`
	// Unit is the contended unit kind on "resource" edges.
	Unit string `json:"unit,omitempty"`
}

// Nest is the diagnosis of one innermost straight-line loop nest.
type Nest struct {
	// Label names the nest by its loop variables, outermost first
	// (e.g. "do j/do i"); "body" for a loopless program.
	Label string `json:"label"`
	// Pos is the innermost loop's source position.
	Pos string `json:"pos,omitempty"`
	// Instructions counts basic operations after back-end imitation.
	Instructions int `json:"instructions"`
	// BlockCost is the Tetris cost of one execution of the lowered
	// body.
	BlockCost int `json:"block_cost"`
	// Weight is the nest's estimated share of the program's in-core
	// cycles, in [0, 1] (block cost × trip counts, normalized).
	Weight float64 `json:"weight"`
	// Bottleneck is the nest's first-saturating unit kind, with its
	// utilization and the earliest slot where every pipe of that kind
	// is simultaneously busy (-1 if never).
	Bottleneck     string     `json:"bottleneck"`
	BottleneckUtil float64    `json:"bottleneck_util"`
	SaturatedAt    int        `json:"saturated_at"`
	Kinds          []KindUtil `json:"kinds"`
	// Path is the binding critical path of the block's schedule and
	// PathCycles the span it explains (≤ BlockCost); DepHeight is the
	// infinite-resource dependence height of the same block.
	Path       []PathStep `json:"path"`
	PathCycles int        `json:"path_cycles"`
	DepHeight  int        `json:"dep_height"`
}

// WhatIf is the one-more-pipe experiment at program level: the whole
// program re-predicted on a machine with one extra pipe of the
// bottleneck kind. A Speedup below 1 is a faithful report, not an
// error — greedy scheduling is not monotone in resources (Graham's
// anomaly), so the model can predict a slowdown from extra hardware,
// and that prediction is itself diagnostic.
type WhatIf struct {
	Unit  string `json:"unit"`
	Pipes int    `json:"pipes"`
	// Cycles is the re-predicted total at the same nominal point;
	// Speedup is baseline / Cycles.
	Cycles  float64 `json:"cycles"`
	Speedup float64 `json:"speedup"`
}

// Report is the full diagnosis of one program on one machine.
type Report struct {
	Machine string `json:"machine"`
	// Cycles is the predicted total at the nominal point and
	// MemoryCycles the cache/TLB share of it (§2.3); InCoreCycles is
	// their difference. MemoryBound labels programs whose memory share
	// reaches half the total.
	Cycles       float64 `json:"cycles"`
	MemoryCycles float64 `json:"memory_cycles"`
	MemoryBound  bool    `json:"memory_bound"`
	// Bottleneck is the weighted dominant unit kind across nests.
	Bottleneck     string     `json:"bottleneck"`
	BottleneckUtil float64    `json:"bottleneck_util"`
	Kinds          []KindUtil `json:"kinds"`
	Nests          []Nest     `json:"nests"`
	WhatIf         *WhatIf    `json:"what_if,omitempty"`
}

// InCoreCycles is the scheduling (non-memory) share of Cycles.
func (r *Report) InCoreCycles() float64 { return r.Cycles - r.MemoryCycles }

// Summary is the one-line digest the golden explain corpus pins: the
// program bottleneck and its utilization, the dominant nest's
// critical-path span, and the top three unit utilizations. Fixed
// float precision keeps the digest byte-stable across runs.
func (r *Report) Summary() string {
	b := r.Bottleneck
	if b == "" {
		b = "-"
	}
	path, bestW := 0, math.Inf(-1)
	for _, n := range r.Nests {
		if n.Weight > bestW {
			bestW, path = n.Weight, n.PathCycles
		}
	}
	kinds := append([]KindUtil(nil), r.Kinds...)
	sort.Slice(kinds, func(i, j int) bool {
		if kinds[i].Utilization != kinds[j].Utilization {
			return kinds[i].Utilization > kinds[j].Utilization
		}
		return kinds[i].Kind < kinds[j].Kind
	})
	if len(kinds) > 3 {
		kinds = kinds[:3]
	}
	parts := make([]string, len(kinds))
	for i, k := range kinds {
		parts[i] = fmt.Sprintf("%s:%.4f", k.Kind, k.Utilization)
	}
	return fmt.Sprintf("bottleneck=%s util=%.4f path=%d top=[%s]",
		b, r.BottleneckUtil, path, strings.Join(parts, " "))
}

// Program diagnoses a parsed, analyzed program on m. The returned
// report prices the program exactly as Predict does (same aggregation,
// same lowering), so its Cycles agree with Prediction.EvalAt at the
// same point.
func Program(prog *source.Program, tbl *sem.Table, m *machine.Machine, opt Options) (*Report, error) {
	res, err := aggregate.New(tbl, m, aggregate.DefaultOptions()).Program(prog)
	if err != nil {
		return nil, err
	}
	point := aggregate.EvalPoint(res.Unknowns, opt.Nominal, true)
	cycles, err := res.Cost.Eval(point)
	if err != nil {
		return nil, err
	}
	memory, err := res.Memory.Eval(point)
	if err != nil {
		return nil, err
	}
	rep, err := Diagnose(prog, tbl, m, opt.Nominal, nil)
	if err != nil {
		return nil, err
	}
	rep.Cycles, rep.MemoryCycles = cycles, memory
	rep.MemoryBound = cycles > 0 && memory/cycles >= 0.5

	if !opt.SkipWhatIf && rep.Bottleneck != "" {
		w, err := whatIf(prog, tbl, m, rep, opt.Nominal)
		if err != nil {
			return nil, err
		}
		rep.WhatIf = w
	}
	return rep, nil
}

// Diagnose is Program without the pricing: the diagnosis of every
// innermost nest, weighted by its share of the nests' cycles at the
// nominal point, and the program-wide unit pressure and bottleneck.
// The report's Cycles, MemoryCycles, MemoryBound and WhatIf stay zero,
// so a caller that has priced the program already pays only for the
// nests' explained placements. The nests lower through ws's translator,
// rebound to tbl; a nil ws takes a workspace from the pool for the call.
func Diagnose(prog *source.Program, tbl *sem.Table, m *machine.Machine, nominal map[string]float64, ws *aggregate.Workspace) (*Report, error) {
	// Every innermost nest, not just the deepest: a diagnosis must
	// attribute cycles across kernels. A body's IFs are flattened, so
	// a guarded update counts as executed work; the guards and branch
	// probabilities live in the aggregate layer, which supplies the
	// weights.
	rep := &Report{Machine: m.Name}
	sites := source.Nests(prog.Body)
	raw := make([]float64, len(sites))
	if ws == nil {
		ws = aggregate.AcquireWorkspace()
		defer ws.Release()
	}
	tr := ws.Translator(tbl, m)
	for i, site := range sites {
		nest, weight, err := diagnoseNest(tr, tbl, m, site, nominal)
		if err != nil {
			return nil, err
		}
		rep.Nests = append(rep.Nests, nest)
		raw[i] = weight
	}
	normalizeWeights(rep.Nests, raw)
	rep.Kinds, rep.Bottleneck, rep.BottleneckUtil = programKinds(rep.Nests)
	return rep, nil
}

// diagnoseNest lowers one nest's body with tr and runs the explained
// placement on it; it reads the lowering before returning, so the next
// nest may reuse tr. The raw weight is the block cost times the nest's
// trip counts at the nominal point — each nest's rough share of in-core
// cycles.
func diagnoseNest(tr *lower.Translator, tbl *sem.Table, m *machine.Machine, site source.Nest, nominal map[string]float64) (Nest, float64, error) {
	vars := site.Vars()
	labels := make([]string, len(vars))
	for i, v := range vars {
		labels[i] = "do " + v
	}
	nest := Nest{Label: "body", SaturatedAt: -1}
	if len(site.Loops) > 0 {
		nest.Label = strings.Join(labels, "/")
		nest.Pos = site.Loops[len(site.Loops)-1].Pos.String()
	}

	lw, err := tr.Body(site.Body, vars)
	if err != nil {
		return Nest{}, 0, fmt.Errorf("explain: nest %s: %w", nest.Label, err)
	}
	ex, err := tetris.EstimateExplained(m, lw.Body, tetris.Options{})
	if err != nil {
		return Nest{}, 0, fmt.Errorf("explain: nest %s: %w", nest.Label, err)
	}

	nest.Instructions = len(lw.Body.Instrs)
	nest.BlockCost = ex.Result.Cost
	nest.Bottleneck = string(ex.Bottleneck)
	nest.BottleneckUtil = ex.BottleneckUtil
	nest.SaturatedAt = ex.SaturatedAt
	nest.PathCycles = ex.PathCycles
	nest.DepHeight = ex.DepHeight
	for _, k := range ex.Kinds {
		nest.Kinds = append(nest.Kinds, KindUtil{Kind: string(k.Kind), Pipes: k.Pipes, Utilization: k.Utilization})
	}
	for _, s := range ex.Path {
		nest.Path = append(nest.Path, PathStep{
			Instr:  s.Instr,
			Op:     lw.Body.Instrs[s.Instr].Op.String(),
			Start:  s.Start,
			Finish: s.Finish,
			Edge:   s.Edge,
			Unit:   string(s.Unit),
		})
	}

	weight := float64(ex.Result.Cost)
	for _, l := range site.Loops {
		weight *= tripAt(tbl, l, nominal)
	}
	return nest, weight, nil
}

// normalizeWeights turns raw per-nest cycle estimates into shares.
func normalizeWeights(nests []Nest, raw []float64) {
	var total float64
	for _, w := range raw {
		total += w
	}
	if total <= 0 {
		return
	}
	for i := range nests {
		nests[i].Weight = raw[i] / total
	}
}

// programKinds aggregates per-nest utilizations into program-wide
// pressure: each kind's utilization is the weight-averaged nest
// utilization, and the bottleneck is the kind with the maximum (ties
// break to the lexicographically smaller kind).
func programKinds(nests []Nest) ([]KindUtil, string, float64) {
	type acc struct {
		pipes int
		util  float64
		w     float64
	}
	byKind := map[string]*acc{}
	for _, n := range nests {
		for _, k := range n.Kinds {
			a := byKind[k.Kind]
			if a == nil {
				a = &acc{pipes: k.Pipes}
				byKind[k.Kind] = a
			}
			a.util += n.Weight * k.Utilization
			a.w += n.Weight
		}
	}
	kinds := make([]KindUtil, 0, len(byKind))
	for k, a := range byKind {
		u := 0.0
		if a.w > 0 {
			u = a.util / a.w
		}
		kinds = append(kinds, KindUtil{Kind: k, Pipes: a.pipes, Utilization: u})
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i].Kind < kinds[j].Kind })
	bottleneck, best := "", 0.0
	for _, k := range kinds {
		if k.Utilization > best {
			bottleneck, best = k.Kind, k.Utilization
		}
	}
	return kinds, bottleneck, best
}

// whatIf re-predicts the whole program on a machine with one extra
// pipe of the report's bottleneck kind.
func whatIf(prog *source.Program, tbl *sem.Table, m *machine.Machine, rep *Report, nominal map[string]float64) (*WhatIf, error) {
	kind := machine.UnitKind(rep.Bottleneck)
	m2, err := machine.WithExtraPipe(m, kind)
	if err != nil {
		return nil, err
	}
	res, err := aggregate.New(tbl, m2, aggregate.DefaultOptions()).Program(prog)
	if err != nil {
		return nil, err
	}
	cycles, err := res.Cost.Eval(aggregate.EvalPoint(res.Unknowns, nominal, true))
	if err != nil {
		return nil, err
	}
	w := &WhatIf{Unit: rep.Bottleneck, Pipes: m2.UnitCounts[kind], Cycles: cycles, Speedup: 1}
	if cycles > 0 {
		w.Speedup = rep.Cycles / cycles
	}
	return w, nil
}

// tripAt evaluates a loop's trip count at the nominal point, clamping
// to at least one iteration. Unresolvable bound expressions assume
// aggregate.DefaultUnknown, like every other unknown.
func tripAt(tbl *sem.Table, l *source.DoLoop, nominal map[string]float64) float64 {
	lb := exprAt(tbl, l.Lb, nominal)
	ub := exprAt(tbl, l.Ub, nominal)
	step := 1.0
	if l.Step != nil {
		if s := exprAt(tbl, l.Step, nominal); s != 0 {
			step = s
		}
	}
	t := math.Floor((ub-lb)/step) + 1
	if t < 1 {
		return 1
	}
	return t
}

// exprAt evaluates a bound expression at the nominal point through
// sem.Eval, F-lite's one arithmetic, for nest weights only, never for
// costs. Each name takes its nominal value, else its PARAMETER value,
// else aggregate.DefaultUnknown; array elements read as DefaultUnknown,
// and an expression that does not evaluate is DefaultUnknown too.
func exprAt(tbl *sem.Table, x source.Expr, nominal map[string]float64) float64 {
	if x == nil {
		return 0
	}
	names := map[string]bool{}
	source.ExprNames(x, names)
	env := &sem.Env{
		Scalars: make(map[string]float64, len(names)),
		Element: func(*source.ArrayRef, []float64) (float64, error) { return aggregate.DefaultUnknown, nil },
	}
	for n := range names {
		v, ok := nominal[n]
		if !ok {
			v = aggregate.DefaultUnknown
			if s := tbl.Lookup(n); s != nil && s.IsConst {
				v = s.ConstVal
			}
		}
		env.Scalars[n] = v
	}
	v, err := tbl.Eval(x, env)
	if err != nil {
		return aggregate.DefaultUnknown
	}
	return v
}
