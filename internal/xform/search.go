package xform

import (
	"container/heap"
	"context"
	"fmt"
	"slices"
	"strings"

	"perfpredict/internal/aggregate"
	"perfpredict/internal/explain"
	"perfpredict/internal/machine"
	"perfpredict/internal/sem"
	"perfpredict/internal/source"
	"perfpredict/internal/symexpr"
	"perfpredict/internal/workpool"
)

// Move is one applicable transformation instance.
type Move struct {
	Kind  string // "unroll", "interchange", "tile", "fuse"
	Path  Path
	Param int // factor / size
}

func (m Move) String() string {
	if m.Param > 0 {
		return fmt.Sprintf("%s%d@%v", m.Kind, m.Param, m.Path)
	}
	return fmt.Sprintf("%s@%v", m.Kind, m.Path)
}

// sortMoves puts moves in a deterministic order, by String, building
// each key once. A move's String determines the move, so no two keys
// are equal and the order is total.
func sortMoves(moves []Move) []Move {
	type keyed struct {
		key string
		m   Move
	}
	ks := make([]keyed, len(moves))
	for i, m := range moves {
		ks[i] = keyed{m.String(), m}
	}
	slices.SortFunc(ks, func(a, b keyed) int { return strings.Compare(a.key, b.key) })
	for i := range ks {
		moves[i] = ks[i].m
	}
	return moves
}

// Apply performs the move, returning a new program that shares every
// node the move did not rewrite with p (see edit); p is left unchanged.
func Apply(p *source.Program, m Move) (*source.Program, error) {
	return apply(p, nil, m)
}

// apply is Apply reading p's symbol table tbl, which the moves that
// consult one analyze p for when tbl is nil.
func apply(p *source.Program, tbl *sem.Table, m Move) (*source.Program, error) {
	switch m.Kind {
	case "unroll":
		return unroll(p, tbl, m.Path, m.Param)
	case "interchange":
		return interchange(p, tbl, m.Path)
	case "tile":
		return Tile(p, m.Path, m.Param)
	case "fuse":
		return fuse(p, tbl, m.Path)
	case "distribute":
		return distribute(p, tbl, m.Path, m.Param)
	default:
		return nil, fmt.Errorf("xform: unknown move %q", m.Kind)
	}
}

// SearchOptions configure the transformation search.
type SearchOptions struct {
	Machine *machine.Machine
	// Nominal assigns values to performance-expression unknowns when
	// ranking variants; unknowns absent from it take the filled
	// evaluation point of aggregate.EvalPoint (probabilities 0.5,
	// everything else aggregate.DefaultUnknown).
	Nominal map[symexpr.Var]float64
	// MaxNodes bounds the number of expanded states (default 40).
	MaxNodes int
	// MaxDepth bounds the transformation sequence length (default 3).
	MaxDepth int
	// UnrollFactors and TileSizes to propose (defaults {2,4} / {16}).
	UnrollFactors []int
	TileSizes     []int
	// DisableNestCache turns the nest-level cost cache into a counting
	// no-op: every nest of every candidate is re-priced from scratch
	// (the pre-incremental behavior), while the re-pricing and tetris
	// counters keep reporting — the baseline side of a before/after
	// comparison. Results are identical either way.
	DisableNestCache bool
	// Caches are the segment and nest caches the search prices
	// through. Nil members get fresh per-search instances (the default);
	// Caches.Nodes is always replaced by a fresh per-search memo;
	// passing warm shared caches carries priced segments and nests
	// across searches — a long-running service reuses one pair for
	// every request. Result counters are reported as deltas against
	// the caches' stats at entry, so they stay per-search even on a
	// shared instance (concurrent searches on the same caches may
	// bleed into each other's deltas; the costs themselves never
	// depend on cache state).
	Caches aggregate.Caches
	// Progress, when non-nil, is called after every node expansion
	// with the number of states expanded so far and the incumbent
	// (best fully priced) cost. It runs on the search goroutine, so
	// implementations must be fast and must not call back into the
	// search; it exists so long-running searches can be observed —
	// async job status in the serving layer reads exactly this.
	Progress func(explored int, best float64)
	// Workers bounds the concurrency of neighbor expansion: the
	// candidate variants of each expanded state are transformed and
	// priced on a worker pool sharing the search's segment and nest
	// caches. <= 0 uses runtime.GOMAXPROCS(0); 1 forces serial
	// expansion. Results are identical for any worker count:
	// candidates are enumerated, deduplicated and pushed in
	// deterministic move order, and cached costs do not depend on fill
	// interleaving (nest entries splice identically wherever they were
	// captured).
	Workers int
}

func (o *SearchOptions) defaults() {
	if o.MaxNodes <= 0 {
		o.MaxNodes = 40
	}
	if o.MaxDepth <= 0 {
		o.MaxDepth = 3
	}
	if len(o.UnrollFactors) == 0 {
		o.UnrollFactors = []int{2, 4}
	}
	if len(o.TileSizes) == 0 {
		o.TileSizes = []int{16}
	}
}

// SearchResult reports the best variant found.
type SearchResult struct {
	Best        *source.Program
	BestCost    float64
	InitialCost float64
	// InitialMemory and BestMemory are the memory-hierarchy share of
	// InitialCost and BestCost at the same nominal point; zero when the
	// machine declares no active hierarchy.
	InitialMemory float64
	BestMemory    float64
	Sequence      []Move
	Explored      int
	// CacheHits/CacheMisses count straight-line segment lookups in the
	// search's shared SegCache.
	CacheHits   int
	CacheMisses int
	// NestHits counts loop nests whose whole cost was spliced from the
	// nest cache; NestMisses counts nests actually re-priced (for a
	// counting-mode cache every nest is a miss). TetrisCalls counts
	// scheduler invocations performed — the work the nest cache avoids.
	NestHits    int
	NestMisses  int
	TetrisCalls int
	// Bottleneck names the first-saturating unit kind of the winning
	// variant (with its utilization), diagnosed once on Best after the
	// search settles. Empty when the search was cancelled or the
	// diagnosis failed — the ranking itself never depends on it.
	Bottleneck     string
	BottleneckUtil float64
}

// Moves enumerates the legal transformations of a program. Legality
// for interchange/fusion is verified during Apply; here cheap
// structural filters keep the branching factor small.
func Moves(p *source.Program, opt SearchOptions) []Move {
	var out []Move
	sites := FindLoops(p)
	for _, s := range sites {
		if s.Innermost {
			for _, f := range opt.UnrollFactors {
				out = append(out, Move{Kind: "unroll", Path: s.Path, Param: f})
			}
		}
		if s.PerfectParent {
			out = append(out, Move{Kind: "interchange", Path: s.Path})
		}
		if !s.Innermost && s.Loop.Step == nil {
			for _, ts := range opt.TileSizes {
				out = append(out, Move{Kind: "tile", Path: s.Path, Param: ts})
			}
		}
		if s.Innermost && len(s.Loop.Body) >= 2 {
			out = append(out, Move{Kind: "distribute", Path: s.Path, Param: 1})
		}
	}
	// Adjacent sibling loops.
	for _, s := range sites {
		list, i, err := locate(p, s.Path)
		if err != nil || i+1 >= len(list) {
			continue
		}
		if _, ok := list[i+1].(*source.DoLoop); ok {
			out = append(out, Move{Kind: "fuse", Path: s.Path})
		}
	}
	return out
}

// Predict evaluates the aggregated cost of a program at the nominal
// assignment, sharing the given segment cache.
func Predict(p *source.Program, opt SearchOptions, cache *aggregate.SegCache) (float64, error) {
	pr, err := predictWith(p, nil, opt, aggregate.Caches{Seg: cache}, nil, nil)
	return pr.cost, err
}

// childTable returns the symbol table of next, which move m made from a
// program whose table is tbl. Unroll, interchange, distribute and fuse
// declare nothing and introduce no name, so next inherits tbl; any
// other move (tile declares its control variable) has next analyzed
// (nil).
func childTable(tbl *sem.Table, m Move, next *source.Program) *sem.Table {
	switch m.Kind {
	case "unroll", "interchange", "distribute", "fuse":
		return tbl.Rebind(next)
	}
	return nil
}

// priced is one program's pricing at the nominal assignment: the total
// predicted cycles, the memory-hierarchy share of that total (zero for
// machines without an active hierarchy), and the symbol table the
// pricing analyzed, which the moves applied to the program read.
type priced struct {
	cost, mem float64
	tbl       *sem.Table
}

// predictWith prices a program, whose symbol table is tbl (nil:
// analyze p), through the search's shared caches and the worker's
// workspace ws (nil for none), passing the advisory dirty-path hint to
// the incremental estimator.
func predictWith(p *source.Program, tbl *sem.Table, opt SearchOptions, caches aggregate.Caches, dirty [][]int, ws *aggregate.Workspace) (priced, error) {
	if tbl == nil {
		var err error
		if tbl, err = sem.Analyze(p); err != nil {
			return priced{}, err
		}
	}
	res, err := ws.PriceIncremental(p, dirty, caches, tbl, opt.Machine, aggregate.DefaultOptions())
	if err != nil {
		return priced{}, err
	}
	assign := aggregate.EvalPoint(res.Unknowns, opt.Nominal, true)
	pr := priced{tbl: tbl}
	if pr.cost, err = res.Cost.Eval(assign); err != nil {
		return priced{}, err
	}
	if pr.mem, err = res.Memory.Eval(assign); err != nil {
		return priced{}, err
	}
	return pr, nil
}

// state is one search node.
type state struct {
	prog *source.Program
	priced
	seq []Move
}

// candidate is one neighbor being expanded (see SearchCtx's three-step
// expansion).
type candidate struct {
	prog *source.Program
	fp   source.Fingerprint
	priced
	skip bool
}

type stateHeap []*state

func (h stateHeap) Len() int           { return len(h) }
func (h stateHeap) Less(a, b int) bool { return h[a].cost < h[b].cost }
func (h stateHeap) Swap(a, b int)      { h[a], h[b] = h[b], h[a] }
func (h *stateHeap) Push(x any)        { *h = append(*h, x.(*state)) }
func (h *stateHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// SearchCtx explores transformation sequences best-first, ranking
// states by predicted cost; ties and pruning make it the practical
// variant of the paper's A* proposal (the heuristic lower bound is
// zero). It returns the cheapest variant encountered.
//
// Cancellation is checked once per node expansion (before each
// frontier pop and between the expansion fan-outs), so the search
// returns within one node-expansion of ctx expiring. On cancellation
// it returns the best state found so far — a valid, fully priced
// variant reachable by the reported Sequence, with counters covering
// the work actually done — alongside ctx.Err(); callers that only care
// about a complete search should treat a non-nil error as failure.
func SearchCtx(ctx context.Context, p *source.Program, opt SearchOptions) (SearchResult, error) {
	return search(ctx, p, opt, nil)
}

// search is SearchCtx; onPush, when non-nil, sees every state put on
// the frontier with the symbol table it was priced with and the digest
// the search deduplicated it by.
func search(ctx context.Context, p *source.Program, opt SearchOptions, onPush func(*source.Program, *sem.Table, source.Fingerprint)) (SearchResult, error) {
	opt.defaults()
	if opt.Machine == nil {
		return SearchResult{}, fmt.Errorf("xform: SearchOptions.Machine is required")
	}
	if err := ctx.Err(); err != nil {
		return SearchResult{}, err
	}
	caches := opt.Caches
	if caches.Seg == nil {
		caches.Seg = aggregate.NewSegCache()
	}
	if caches.Nest == nil {
		if opt.DisableNestCache {
			caches.Nest = aggregate.NewNestCacheCounting()
		} else {
			caches.Nest = aggregate.NewNestCache()
		}
	}
	// The node memo keys on AST identity, so it lives for this search
	// only: it dedups candidates (visited) and hashes every nest and
	// segment key, and each candidate's shared subtrees are lookups.
	caches.Nodes = source.NewNodeMemo()
	// Counter baselines: on shared warm caches the totals are
	// cumulative across searches, so report deltas.
	hits0, misses0 := caches.Seg.Stats()
	nestHits0, nestMisses0 := caches.Nest.Stats()
	tetris0 := caches.Nest.TetrisCalls()
	// Each worker prices through a workspace of its own for the whole
	// search, so candidates reuse one translator and one Tetris scratch
	// per worker; the workspaces go back to their pool when the search
	// ends.
	wss := make([]*aggregate.Workspace, workpool.Workers(opt.Workers))
	for i := range wss {
		wss[i] = aggregate.AcquireWorkspace()
	}
	defer func() {
		for _, ws := range wss {
			ws.Release()
		}
	}()
	initial, err := predictWith(p, nil, opt, caches, nil, wss[0])
	if err != nil {
		return SearchResult{}, err
	}
	start := &state{prog: p, priced: initial}
	best := start
	startFP := caches.Nodes.Program(p)
	if onPush != nil {
		onPush(p, initial.tbl, startFP)
	}
	visited := map[source.Fingerprint]bool{startFP: true}
	h := &stateHeap{start}
	explored := 0
	var ctxErr error
	for h.Len() > 0 && explored < opt.MaxNodes {
		if ctxErr = ctx.Err(); ctxErr != nil {
			break
		}
		cur := heap.Pop(h).(*state)
		explored++
		if opt.Progress != nil {
			opt.Progress(explored, best.cost)
		}
		if len(cur.seq) >= opt.MaxDepth {
			continue
		}
		moves := sortMoves(Moves(cur.prog, opt))
		// Expand neighbors in three steps — parallel transform, serial
		// dedup, parallel pricing — then fold the survivors back into
		// the frontier in move order, so the heap and the running best
		// are independent of worker interleaving. A cancellation inside
		// either fan-out abandons the half-expanded neighbor set
		// without folding it in: every state on the heap and the
		// running best stay fully priced.
		cands := make([]candidate, len(moves))
		ctxErr = workpool.RunCtx(ctx, len(moves), opt.Workers, func(i int) {
			next, err := apply(cur.prog, cur.tbl, moves[i])
			if err != nil {
				cands[i].skip = true // illegal move
				return
			}
			cands[i].prog = next
			cands[i].fp = caches.Nodes.Program(next)
		})
		if ctxErr != nil {
			break
		}
		for i := range cands {
			if cands[i].skip {
				continue
			}
			if visited[cands[i].fp] {
				cands[i].skip = true
				continue
			}
			visited[cands[i].fp] = true
		}
		ctxErr = workpool.RunWorkersCtx(ctx, len(cands), opt.Workers, func(w, i int) {
			if cands[i].skip {
				return
			}
			// The move's path is the advisory dirty hint: only the
			// transformed nest skips its cache probe; every untouched
			// nest — including ones the move shifted — is looked up.
			tbl := childTable(cur.tbl, moves[i], cands[i].prog)
			pr, err := predictWith(cands[i].prog, tbl, opt, caches, [][]int{[]int(moves[i].Path)}, wss[w])
			if err != nil {
				cands[i].skip = true
				return
			}
			cands[i].priced = pr
		})
		if ctxErr != nil {
			break
		}
		for i := range cands {
			if cands[i].skip {
				continue
			}
			st := &state{prog: cands[i].prog, priced: cands[i].priced, seq: append(append([]Move{}, cur.seq...), moves[i])}
			if st.cost < best.cost {
				best = st
			}
			if onPush != nil {
				onPush(st.prog, st.tbl, cands[i].fp)
			}
			heap.Push(h, st)
		}
	}
	hits, misses := caches.Seg.Stats()
	nestHits, nestMisses := caches.Nest.Stats()
	out := SearchResult{
		Best:          best.prog,
		BestCost:      best.cost,
		InitialCost:   initial.cost,
		InitialMemory: initial.mem,
		BestMemory:    best.mem,
		Sequence:      best.seq,
		Explored:      explored,
		CacheHits:     hits - hits0,
		CacheMisses:   misses - misses0,
		NestHits:      nestHits - nestHits0,
		NestMisses:    nestMisses - nestMisses0,
		TetrisCalls:   caches.Nest.TetrisCalls() - tetris0,
	}
	if ctxErr == nil {
		out.Bottleneck, out.BottleneckUtil = diagnoseBest(best.prog, best.tbl, opt, wss[0])
	}
	return out, ctxErr
}

// diagnoseBest names the winning variant's bottleneck unit. The
// diagnosis is advisory — it runs once, after ranking, and any failure
// (e.g. a nest shape the explainer cannot lower) degrades to an empty
// bottleneck rather than failing a completed search. The winner is
// priced already, so only its nests are diagnosed, through the search's
// workspace ws.
func diagnoseBest(p *source.Program, tbl *sem.Table, opt SearchOptions, ws *aggregate.Workspace) (string, float64) {
	nominal := make(map[string]float64, len(opt.Nominal))
	for k, v := range opt.Nominal {
		nominal[string(k)] = v
	}
	rep, err := explain.Diagnose(p, tbl, opt.Machine, nominal, ws)
	if err != nil {
		return "", 0
	}
	return rep.Bottleneck, rep.BottleneckUtil
}
