// Package oracle computes exact optimal Tetris packings by exhaustive
// branch-and-bound, serving as the ground truth that differential
// fuzzing compares tetris.Estimate against.
//
// The approximation in package tetris is a *serial schedule generation
// scheme*: it walks the block in program order and drops every
// operation into the lowest feasible time slots. The oracle explores
// that same placement rule under **every** dependence-respecting
// instruction order, so its search space provably contains the
// approximation's schedule — which makes
//
//	tetris.Estimate(b).Cost >= oracle.Pack(b).Cost
//
// an invariant that holds by construction for a correct implementation
// (any violation is a bug in one of the two placers, the dependence
// filter, or the pooled scratch state). For the makespan objective the
// set of schedules generated this way ("active schedules") contains a
// global optimum, so on blocks where the search completes
// (Result.Proven) the oracle cost is the exact optimum and the
// approx/exact ratio measures the greedy's true quality.
//
// The oracle is deliberately an independent implementation: dense
// per-pipe bit grids instead of run-length slot lists, no pooling, no
// incremental scratch — simple enough to trust, slow enough to only
// run on fuzzing corpora (blocks up to Options.MaxOps operations).
package oracle

import (
	"context"
	"fmt"
	"math"
	"sort"

	"perfpredict/internal/ir"
	"perfpredict/internal/machine"
	"perfpredict/internal/tetris"
)

// Options tune the exact search.
type Options struct {
	// MaxOps bounds the block size the search accepts; 0 means the
	// default of 24. Larger blocks return an error rather than running
	// forever.
	MaxOps int
	// NodeBudget bounds the branch-and-bound nodes expanded; 0 means
	// the default of 1<<20. On exhaustion the best schedule found so
	// far is returned with Proven=false — still an upper bound on the
	// optimum, and still never above the greedy approximation.
	NodeBudget int
	// MayAlias selects the conservative memory-dependence filter; it
	// must match the tetris.Options the oracle is compared against.
	MayAlias bool
}

// Result is an exact (or budget-truncated) packing.
type Result struct {
	// Cost, Start and End mirror tetris.Result: makespan between the
	// lowest occupied slot and the highest dependent-visible end.
	Cost, Start, End int
	// Order is the instruction order achieving Cost.
	Order []int
	// PlaceTime is the issue slot of each instruction under Order,
	// indexed by original instruction index.
	PlaceTime []int
	// Shape is the cost block of the best schedule.
	Shape tetris.CostBlock
	// Nodes counts branch-and-bound nodes expanded.
	Nodes int
	// Proven reports that the search ran to completion: Cost is the
	// exact minimum over all dependence-respecting placement orders.
	Proven bool
}

const (
	defaultMaxOps     = 24
	defaultNodeBudget = 1 << 20
)

// Pack searches all dependence-respecting instruction orders for the
// cheapest packing of b on m.
func Pack(m *machine.Machine, b *ir.Block, opt Options) (Result, error) {
	return PackCtx(context.Background(), m, b, opt)
}

// PackCtx is Pack under a context: the branch-and-bound polls ctx
// every ctxCheckStride expanded nodes and unwinds once it is done, so
// an abandoned exact search stops burning CPU promptly. On
// cancellation the incumbent found so far is returned with
// Proven=false alongside ctx.Err() — still a valid upper bound on the
// optimum (the program-order incumbent is seeded before the search),
// exactly like a budget truncation.
func PackCtx(ctx context.Context, m *machine.Machine, b *ir.Block, opt Options) (Result, error) {
	p, err := newPacker(m, b, opt)
	if err != nil {
		return Result{}, err
	}
	p.ctx = ctx
	// Program order first: the incumbent equals the greedy
	// approximation's schedule, so the returned best can never exceed
	// it even when the budget truncates the search.
	p.runProgramOrder()
	p.dfs()
	res := p.best
	res.Nodes = p.nodes
	res.Proven = !p.truncated
	return res, ctx.Err()
}

// ctxCheckStride is how many branch-and-bound nodes run between
// context polls: frequent enough that cancellation lands within
// microseconds, rare enough that the poll is invisible in the node
// rate.
const ctxCheckStride = 1024

// GreedyInOrder places b in program order through the oracle's own
// placement engine — an independent reimplementation of the
// tetris.Estimate placement rule. Differential fuzzing asserts its
// Cost/Start/End/Shape/PlaceTime agree with tetris.Estimate exactly.
func GreedyInOrder(m *machine.Machine, b *ir.Block, opt Options) (Result, error) {
	opt.MaxOps = math.MaxInt // greedy is linear; no size cap needed
	p, err := newPacker(m, b, opt)
	if err != nil {
		return Result{}, err
	}
	p.runProgramOrder()
	res := p.best
	res.Nodes = 0
	res.Proven = false
	return res, nil
}

// packer is the search state. All mutable placement state supports
// exact undo, so the DFS never copies grids.
type packer struct {
	b      *ir.Block
	instrs []ir.Instr
	seqs   [][]machine.AtomicOp
	deps   [][]int
	width  int

	inst   []machine.UnitInstance
	byKind map[machine.UnitKind][]int
	// kinds lists the target's unit kinds by dense kind index, the
	// order tetris.CostBlock keeps its rows in.
	kinds []machine.UnitKind
	// kindOf[p] is the kind of pipe p; latEnd[p] its furthest
	// dependent-visible latency end.
	occ    []grid
	latEnd []int

	dispatch  []int
	scheduled []bool
	nSched    int
	issue     []int
	finish    []int
	minOcc    int // math.MaxInt while nothing occupied
	curEnd    int

	// symmetry-breaking equivalence classes: eqClass[i] == eqClass[j]
	// means i and j are fully interchangeable (same op, payload, dep
	// set and successor set).
	eqClass []int

	// tail latency lower bounds for pruning.
	totalLat []int

	ctx       context.Context
	budget    int
	nodes     int
	truncated bool

	order  []int
	best   Result
	used   []bool // fitsAt scratch: per-pipe taken marks
	chosen []int  // fitsAt scratch: segment→pipe assignment
}

func newPacker(m *machine.Machine, b *ir.Block, opt Options) (*packer, error) {
	maxOps := opt.MaxOps
	if maxOps == 0 {
		maxOps = defaultMaxOps
	}
	n := len(b.Instrs)
	if n > maxOps {
		return nil, fmt.Errorf("oracle: block has %d instructions, cap is %d", n, maxOps)
	}
	budget := opt.NodeBudget
	if budget <= 0 {
		budget = defaultNodeBudget
	}
	c := m.Compiled()
	p := &packer{
		b:         b,
		instrs:    b.Instrs,
		deps:      b.Deps(opt.MayAlias),
		width:     c.DispatchWidth(),
		inst:      c.Units(),
		byKind:    map[machine.UnitKind][]int{},
		kinds:     c.Costs().Kinds,
		scheduled: make([]bool, n),
		issue:     make([]int, n),
		finish:    make([]int, n),
		minOcc:    math.MaxInt,
		budget:    budget,
		order:     make([]int, 0, n),
	}
	for i, u := range p.inst {
		p.byKind[u.Kind] = append(p.byKind[u.Kind], i)
	}
	p.occ = make([]grid, len(p.inst))
	p.latEnd = make([]int, len(p.inst))
	p.used = make([]bool, len(p.inst))
	p.seqs = make([][]machine.AtomicOp, n)
	p.totalLat = make([]int, n)
	for i, in := range b.Instrs {
		seq, err := c.Lookup(in.Op)
		if err != nil {
			return nil, err
		}
		p.seqs[i] = seq
		for _, a := range seq {
			p.totalLat[i] += a.Latency()
			// Feasibility precheck: every segment's unit must exist,
			// and an atomic op may not demand more distinct pipes of a
			// kind than the machine has (each segment of one atomic op
			// occupies its own pipe). Validated machines guarantee
			// this; hand-built tables may not, and without the check
			// the placement scan would never terminate.
			perKind := map[machine.UnitKind]int{}
			for _, seg := range a.Segments {
				pipes, ok := p.byKind[seg.Unit]
				if !ok {
					return nil, fmt.Errorf("oracle: instr %d (%s): atomic op %s references unknown unit %s",
						i, b.InstrString(i), a.Name, seg.Unit)
				}
				perKind[seg.Unit]++
				if perKind[seg.Unit] > len(pipes) {
					return nil, fmt.Errorf("oracle: instr %d (%s): atomic op %s needs %d pipes of %s, machine has %d",
						i, b.InstrString(i), a.Name, perKind[seg.Unit], seg.Unit, len(pipes))
				}
			}
		}
	}
	p.buildEquivalence()
	p.best.Cost = math.MaxInt
	return p, nil
}

// buildEquivalence groups fully interchangeable instructions: same
// operation and payload, identical dependence sets and identical
// successor sets. Scheduling any member of a ready class first is
// isomorphic to scheduling another, so the DFS only branches on the
// lowest-index ready member of each class.
func (p *packer) buildEquivalence() {
	n := len(p.instrs)
	succs := make([][]int, n)
	for i, ds := range p.deps {
		for _, j := range ds {
			succs[j] = append(succs[j], i)
		}
	}
	key := make([]string, n)
	for i, in := range p.instrs {
		ds := append([]int(nil), p.deps[i]...)
		sort.Ints(ds)
		ss := append([]int(nil), succs[i]...)
		sort.Ints(ss)
		addr := in.Addr // a call's Addr names its callee, which pricing ignores
		if !in.Op.IsMem() {
			addr = 0
		}
		key[i] = fmt.Sprintf("%d|%d|%d|%g|%v|%v", in.Op, addr, in.Base, in.Imm, ds, ss)
	}
	p.eqClass = make([]int, n)
	classes := map[string]int{}
	for i, k := range key {
		id, ok := classes[k]
		if !ok {
			id = len(classes)
			classes[k] = id
		}
		p.eqClass[i] = id
	}
}

// runProgramOrder establishes the incumbent by scheduling in program
// order — exactly what the greedy approximation does.
func (p *packer) runProgramOrder() {
	frames := make([]frame, 0, len(p.instrs))
	for i := range p.instrs {
		frames = append(frames, p.placeInstr(i))
	}
	p.record()
	for i := len(frames) - 1; i >= 0; i-- {
		p.undo(frames[i])
	}
}

// dfs branches over which ready instruction to schedule next.
func (p *packer) dfs() {
	if p.truncated {
		return
	}
	if p.nodes >= p.budget {
		p.truncated = true
		return
	}
	if p.ctx != nil && p.nodes%ctxCheckStride == 0 && p.ctx.Err() != nil {
		p.truncated = true
		return
	}
	p.nodes++
	n := len(p.instrs)
	if p.nSched == n {
		p.record()
		return
	}
	if p.prune() {
		return
	}
	seenClass := map[int]bool{}
	for i := 0; i < n; i++ {
		if p.scheduled[i] || !p.ready(i) {
			continue
		}
		if seenClass[p.eqClass[i]] {
			continue // isomorphic to a branch already taken
		}
		seenClass[p.eqClass[i]] = true
		f := p.placeInstr(i)
		p.dfs()
		p.undo(f)
	}
}

// ready reports that every dependence of i is scheduled.
func (p *packer) ready(i int) bool {
	for _, j := range p.deps[i] {
		if !p.scheduled[j] {
			return false
		}
	}
	return true
}

// prune returns true when no completion of the current partial
// schedule can beat the incumbent. Final End is at least lbEnd (the
// current end, or any unscheduled instruction's earliest possible
// finish ignoring resources), and final Start can only be <= the
// current minimum occupied slot, so final cost >= lbEnd - minOcc.
func (p *packer) prune() bool {
	if p.minOcc == math.MaxInt {
		return false // nothing placed yet; Start unbounded above
	}
	lbEnd := p.curEnd
	n := len(p.instrs)
	lbF := make([]int, n)
	for i := 0; i < n; i++ { // deps point backward: index order is topological
		if p.scheduled[i] {
			lbF[i] = p.finish[i]
			continue
		}
		ready, dataReady := 0, 0
		for _, j := range p.deps[i] {
			if p.instrs[j].Op.IsMem() {
				if lbF[j] > ready {
					ready = lbF[j]
				}
			} else if lbF[j] > dataReady {
				dataReady = lbF[j]
			}
		}
		in := p.instrs[i]
		if !in.Op.IsStore() && dataReady > ready {
			ready = dataReady
		}
		f := ready + p.totalLat[i]
		if in.Op.IsStore() && dataReady+1 > f {
			f = dataReady + 1
		}
		lbF[i] = f
		if f > lbEnd {
			lbEnd = f
		}
	}
	return lbEnd-p.minOcc >= p.best.Cost
}

// record captures the current complete schedule if it beats the best.
func (p *packer) record() {
	start := p.minOcc
	if start == math.MaxInt {
		start = 0
	}
	cost := p.curEnd - start
	if cost < 0 {
		cost = 0
	}
	if cost >= p.best.Cost {
		return
	}
	p.best = Result{
		Cost:      cost,
		Start:     start,
		End:       p.curEnd,
		Order:     append([]int(nil), p.order...),
		PlaceTime: append([]int(nil), p.issue...),
		Shape:     p.shape(start, p.curEnd),
	}
}

// shape summarizes the occupied region exactly as tetris.costBlock
// does: per-kind first/last filled slots relative to lo and total
// filled (noncoverable) cycles.
func (p *packer) shape(lo, hi int) tetris.CostBlock {
	cb := tetris.NewCostBlock(hi-lo, p.kinds)
	for i, u := range p.inst {
		if f, l := p.occ[i].extent(); f >= 0 {
			cb.AddPipe(u.Kind, f-lo, l-lo, p.occ[i].countFilledBelow(hi))
		}
	}
	return cb
}
