// Package pipesim is the reference cycle-level simulator used as the
// reproduction's stand-in for the paper's ground truth (IBM xlf's
// per-instruction cycle listings and RS/6000 hardware runs). It models
// the decoupled in-order pipeline of the RS/6000: instructions are
// dispatched in program order (bounded by the dispatch width) into
// per-unit queues; each unit executes its own queue in order, stalling
// on operands and pipe occupancy, but different units run ahead of one
// another — the fixed-point unit can prefetch loads past a stalled
// floating-point operation, which is precisely the "operation
// overlapping" the cost model prices.
//
// The simulator deliberately shares no placement logic with the Tetris
// cost model (package tetris): both read the same machine description,
// but tetris *predicts* by lowest-fit packing while pipesim *executes*
// the instruction sequence. Package pipesim also provides the greedy
// list scheduler that plays the role of the back-end instruction
// scheduler the cost model imitates.
package pipesim

import (
	"container/heap"
	"fmt"
	"sort"
	"sync"

	"perfpredict/internal/ir"
	"perfpredict/internal/machine"
)

// Result reports one simulated block execution.
type Result struct {
	// Cycles is the makespan from first issue to last completion.
	Cycles int64
	// IssueTime per instruction.
	IssueTime []int64
	// UnitBusy counts busy (noncoverable) cycles per unit kind.
	UnitBusy map[machine.UnitKind]int64
}

// pipePool recycles Pipeline state across Run calls: the scoreboards
// and per-unit tables are cleared, not reallocated, so a block
// simulation allocates only what escapes into the Result.
var pipePool = sync.Pool{New: func() any { return new(Pipeline) }}

// Run simulates the block in the given instruction order. It is safe
// for concurrent use (each call draws its pipeline from a pool).
func Run(m *machine.Machine, b *ir.Block) (Result, error) {
	p := pipePool.Get().(*Pipeline)
	defer pipePool.Put(p)
	p.Reset(m)
	issue := make([]int64, len(b.Instrs))
	for i := range b.Instrs {
		t, err := p.Issue(b, i)
		if err != nil {
			return Result{}, fmt.Errorf("instr %d (%s): %w", i, b.InstrString(i), err)
		}
		issue[i] = t
	}
	// Copy the busy counters out: p.unitBusy returns to the pool.
	busy := make(map[machine.UnitKind]int64, len(p.unitBusy))
	for k, v := range p.unitBusy {
		busy[k] = v
	}
	return Result{Cycles: p.Drain(), IssueTime: issue, UnitBusy: busy}, nil
}

// Pipeline is the streaming core: callers feed instructions in
// execution order (a basic block, or a whole-program dynamic trace from
// the interpreter) and read the final cycle count.
type Pipeline struct {
	// c is the compiled target; every table below derived from it is
	// rebuilt only when a Reset names a different one.
	c      *machine.Compiled
	units  []machine.UnitInstance
	byKind map[machine.UnitKind][]int
	// freeAt[pipe] is the first cycle the pipe is idle.
	freeAt []int64
	// regReady maps virtual registers to their ready cycle.
	regReady map[ir.Reg]int64
	// Memory scoreboard.
	lastWrite map[ir.Sym]int64 // addr -> completion cycle of last store
	lastReads map[ir.Sym]int64 // addr -> latest completion of loads
	// Per-unit-kind issue frontiers: each unit executes its queue in
	// order, but units are decoupled from one another.
	frontier map[machine.UnitKind]int64
	// maxFrontier tracks the furthest issue so pruning stays sound.
	maxFrontier int64
	// dispatched counts ops begun in the cycle at dispatchCycle.
	dispatchCycle int64
	dispatched    int
	// lastFinish is the completion time of the latest instruction.
	lastFinish int64
	firstIssue int64
	issuedAny  bool
	unitBusy   map[machine.UnitKind]int64
	// kindCache memoizes kindsOf per opcode (fixed for one machine).
	kindCache map[ir.Op][]machine.UnitKind
	// chosen and used are placeAtomic scratch: segment→pipe assignment
	// and per-pipe taken marks for the candidate cycle being probed.
	chosen []int
	used   []bool
}

// NewPipeline creates an empty pipeline for m.
func NewPipeline(m *machine.Machine) *Pipeline {
	p := &Pipeline{}
	p.Reset(m)
	return p
}

// Reset clears the pipeline for a fresh run on m, reusing scoreboards
// and unit tables (rebuilt only when m's compiled target differs from
// the last run's; a compiled target is immutable, so identity is
// content).
func (p *Pipeline) Reset(m *machine.Machine) {
	if c := m.Compiled(); p.c != c {
		p.c = c
		p.units = c.Units()
		p.byKind = make(map[machine.UnitKind][]int, 4)
		for i, u := range p.units {
			p.byKind[u.Kind] = append(p.byKind[u.Kind], i)
		}
		p.freeAt = make([]int64, len(p.units))
		p.used = make([]bool, len(p.units))
		p.kindCache = map[ir.Op][]machine.UnitKind{}
	}
	for i := range p.freeAt {
		p.freeAt[i] = 0
	}
	if p.regReady == nil {
		p.regReady = map[ir.Reg]int64{}
		p.lastWrite = map[ir.Sym]int64{}
		p.lastReads = map[ir.Sym]int64{}
		p.unitBusy = map[machine.UnitKind]int64{}
		p.frontier = map[machine.UnitKind]int64{}
	} else {
		clear(p.regReady)
		clear(p.lastWrite)
		clear(p.lastReads)
		clear(p.unitBusy)
		clear(p.frontier)
	}
	p.maxFrontier = 0
	p.dispatchCycle = 0
	p.dispatched = 0
	p.lastFinish = 0
	p.firstIssue = 0
	p.issuedAny = false
}

// Issue feeds instruction i of b, using the internal register and
// memory scoreboards for dependences, and returns its issue cycle. The
// scoreboard keys memory by Sym: every block fed to one run must name
// its locations in one space.
func (p *Pipeline) Issue(b *ir.Block, i int) (int64, error) {
	in := &b.Instrs[i]
	var ready int64
	// Same-queue in-order execution: the instruction cannot begin
	// before the previous instruction on any unit kind it uses.
	for _, k := range p.kindsOf(in) {
		if f := p.frontier[k]; f > ready {
			ready = f
		}
	}
	var dataReady int64
	for _, s := range b.Srcs(i) {
		if s == ir.NoReg {
			continue
		}
		if t, ok := p.regReady[s]; ok && t > dataReady {
			dataReady = t
		}
	}
	if in.Op.IsStore() {
		// Pending-store queue: the address-generation slot executes in
		// queue order without waiting for the datum; the memory effect
		// completes once the datum arrives.
		ready = p.memReady(in, ready)
		return p.issueAt(in, ready, dataReady)
	}
	if dataReady > ready {
		ready = dataReady
	}
	ready = p.memReady(in, ready)
	return p.issueAt(in, ready, 0)
}

// kindsOf returns the unit kinds an instruction occupies, memoized per
// opcode (an opcode's atomic-op sequence is fixed for one machine).
func (p *Pipeline) kindsOf(in *ir.Instr) []machine.UnitKind {
	if ks, ok := p.kindCache[in.Op]; ok {
		return ks
	}
	var out []machine.UnitKind
	if seq, err := p.c.Lookup(in.Op); err == nil {
		for _, a := range seq {
			for _, seg := range a.Segments {
				dup := false
				for _, k := range out {
					if k == seg.Unit {
						dup = true
						break
					}
				}
				if !dup {
					out = append(out, seg.Unit)
				}
			}
		}
	}
	p.kindCache[in.Op] = out
	return out
}

func (p *Pipeline) memReady(in *ir.Instr, ready int64) int64 {
	if !in.Op.IsMem() {
		if in.Op == ir.OpCall {
			// Calls serialize against all memory.
			for _, t := range p.lastWrite {
				if t > ready {
					ready = t
				}
			}
			for _, t := range p.lastReads {
				if t > ready {
					ready = t
				}
			}
		}
		return ready
	}
	if in.Op.IsLoad() {
		if t, ok := p.lastWrite[in.Addr]; ok && t > ready {
			ready = t
		}
		return ready
	}
	// Store: after prior load/store of the same address.
	if t, ok := p.lastWrite[in.Addr]; ok && t > ready {
		ready = t
	}
	if t, ok := p.lastReads[in.Addr]; ok && t > ready {
		ready = t
	}
	return ready
}

// issueAt finds the actual issue cycle ≥ ready obeying unit
// availability and dispatch width, occupies resources, and updates the
// scoreboards. For buffered stores, dataReady delays only the memory
// effect, not the unit slots.
func (p *Pipeline) issueAt(in *ir.Instr, ready, dataReady int64) (int64, error) {
	seq, err := p.c.Lookup(in.Op)
	if err != nil {
		return 0, err
	}
	t := ready
	first := int64(-1)
	for _, a := range seq {
		at, err := p.placeAtomic(a, t)
		if err != nil {
			return 0, err
		}
		if first == -1 {
			first = at
		}
		t = at + int64(a.Latency())
	}
	if first == -1 {
		first = ready
		t = ready
	}
	finish := t
	if in.Op.IsStore() && dataReady+1 > finish {
		finish = dataReady + 1
	}
	if in.Op.HasDst() && in.Dst != ir.NoReg {
		p.regReady[in.Dst] = finish
	}
	if in.Op.IsMem() {
		if in.Op.IsLoad() {
			if finish > p.lastReads[in.Addr] {
				p.lastReads[in.Addr] = finish
			}
		} else {
			p.lastWrite[in.Addr] = finish
			delete(p.lastReads, in.Addr)
		}
	}
	if in.Op == ir.OpCall {
		clear(p.lastWrite)
		clear(p.lastReads)
	}
	// Queue order: the next instruction on the same unit kinds may
	// issue in the same cycle but not earlier. Stores are an
	// exception: the POWER pending-store queue buffers them, so a
	// store waiting for its datum does not hold up later operations on
	// its units (ordering against loads/stores of the same address is
	// enforced by the memory scoreboard).
	if !in.Op.IsStore() {
		for _, k := range p.kindsOf(in) {
			if first > p.frontier[k] {
				p.frontier[k] = first
			}
		}
	}
	if first > p.maxFrontier {
		p.maxFrontier = first
	}
	if finish > p.lastFinish {
		p.lastFinish = finish
	}
	if !p.issuedAny || first < p.firstIssue {
		p.firstIssue = first
	}
	p.issuedAny = true
	return first, nil
}

// placeAtomic issues one atomic op at the earliest cycle ≥ ready.
func (p *Pipeline) placeAtomic(a machine.AtomicOp, ready int64) (int64, error) {
	t := ready
	for iter := 0; iter < 1<<24; iter++ {
		// Dispatch width.
		if p.dispatched >= p.c.DispatchWidth() && t == p.dispatchCycle {
			t++
		}
		ok := true
		var need int64 = t
		if cap(p.chosen) < len(a.Segments) {
			p.chosen = make([]int, len(a.Segments))
		}
		chosen := p.chosen[:len(a.Segments)]
		for i := range p.used {
			p.used[i] = false
		}
		for si, seg := range a.Segments {
			best := -1
			var bestFree int64
			for _, pipe := range p.byKind[seg.Unit] {
				if p.used[pipe] {
					continue
				}
				segStart := t + int64(seg.Start)
				if p.freeAt[pipe] <= segStart {
					best = pipe
					break
				}
				if best == -1 || p.freeAt[pipe] < bestFree {
					best, bestFree = pipe, p.freeAt[pipe]
				}
			}
			if best == -1 {
				return 0, fmt.Errorf("pipesim: no pipe of kind %s", seg.Unit)
			}
			segStart := t + int64(seg.Start)
			if p.freeAt[best] > segStart {
				ok = false
				if cand := p.freeAt[best] - int64(seg.Start); cand > need {
					need = cand
				}
			}
			p.used[best] = true
			chosen[si] = best
		}
		if !ok {
			if need <= t {
				need = t + 1
			}
			t = need
			continue
		}
		// Commit.
		for si, seg := range a.Segments {
			pipe := chosen[si]
			end := t + int64(seg.Start) + int64(seg.Noncov)
			if seg.Noncov > 0 {
				if end > p.freeAt[pipe] {
					p.freeAt[pipe] = end
				}
				p.unitBusy[seg.Unit] += int64(seg.Noncov)
			}
		}
		if t != p.dispatchCycle {
			p.dispatchCycle = t
			p.dispatched = 0
		}
		p.dispatched++
		return t, nil
	}
	return 0, fmt.Errorf("pipesim: placement did not converge for %s", a.Name)
}

// Drain returns the total cycles from first issue to last completion.
func (p *Pipeline) Drain() int64 {
	if !p.issuedAny {
		return 0
	}
	return p.lastFinish - p.firstIssue
}

// Prune discards scoreboard entries that can no longer influence
// timing: any register or memory timestamp at or below the slowest
// unit's frontier is dominated by it. Long dynamic traces (the
// interpreter replaying millions of iterations) call this
// periodically to keep memory bounded.
func (p *Pipeline) Prune() {
	min := p.maxFrontier
	for _, f := range p.frontier {
		if f < min {
			min = f
		}
	}
	for r, t := range p.regReady {
		if t <= min {
			delete(p.regReady, r)
		}
	}
	for a, t := range p.lastWrite {
		if t <= min {
			delete(p.lastWrite, a)
		}
	}
	for a, t := range p.lastReads {
		if t <= min {
			delete(p.lastReads, a)
		}
	}
}

// ScoreboardSize reports tracked entries (for memory-bound tests).
func (p *Pipeline) ScoreboardSize() int {
	return len(p.regReady) + len(p.lastWrite) + len(p.lastReads)
}

// Cycles returns the running cycle count without resetting.
func (p *Pipeline) Cycles() int64 { return p.Drain() }

// Schedule reorders a block with greedy critical-path list scheduling —
// the stand-in for the back-end instruction scheduler whose output the
// cost model's "full overlapping" assumption describes. Dependences
// (register and memory) are preserved. The result shares b's overflow
// sources.
func Schedule(m *machine.Machine, b *ir.Block) *ir.Block {
	return ScheduleWith(m, b, new(ir.DepsBuf))
}

// ScheduleWith is Schedule computing the dependences in buf, which a
// caller scheduling many windows keeps.
func ScheduleWith(m *machine.Machine, b *ir.Block, buf *ir.DepsBuf) *ir.Block {
	n := len(b.Instrs)
	if n == 0 {
		return b.Clone()
	}
	deps := b.DepsInto(false, buf)
	succs := make([][]int, n)
	indeg := make([]int, n)
	for i, ds := range deps {
		indeg[i] = len(ds)
		for _, j := range ds {
			succs[j] = append(succs[j], i)
		}
	}
	// Priority: longest latency path to any sink.
	prio := make([]int64, n)
	for i := n - 1; i >= 0; i-- {
		lat := int64(m.Latency(b.Instrs[i].Op))
		best := int64(0)
		for _, s := range succs[i] {
			if prio[s] > best {
				best = prio[s]
			}
		}
		prio[i] = lat + best
	}
	h := &prioHeap{prio: prio}
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			heap.Push(h, i)
		}
	}
	out := &ir.Block{Instrs: make([]ir.Instr, 0, n), Extra: b.Extra, Names: b.Names}
	for h.Len() > 0 {
		i := heap.Pop(h).(int)
		out.Instrs = append(out.Instrs, b.Instrs[i])
		for _, s := range succs[i] {
			indeg[s]--
			if indeg[s] == 0 {
				heap.Push(h, s)
			}
		}
	}
	if len(out.Instrs) != n {
		// Dependence cycle (cannot happen for straight-line code);
		// fall back to the original order.
		return b.Clone()
	}
	return out
}

type prioHeap struct {
	prio []int64
	idx  []int
}

func (h *prioHeap) Len() int { return len(h.idx) }
func (h *prioHeap) Less(a, b int) bool {
	pa, pb := h.prio[h.idx[a]], h.prio[h.idx[b]]
	if pa != pb {
		return pa > pb
	}
	return h.idx[a] < h.idx[b] // stable: program order breaks ties
}
func (h *prioHeap) Swap(a, b int) { h.idx[a], h.idx[b] = h.idx[b], h.idx[a] }
func (h *prioHeap) Push(x any)    { h.idx = append(h.idx, x.(int)) }
func (h *prioHeap) Pop() any {
	old := h.idx
	n := len(old)
	x := old[n-1]
	h.idx = old[:n-1]
	return x
}

// RunScheduled list-schedules then simulates: the full reference
// pipeline (back-end scheduler + hardware).
func RunScheduled(m *machine.Machine, b *ir.Block) (Result, error) {
	return Run(m, Schedule(m, b))
}

// UtilizationReport formats per-unit busy fractions for diagnostics.
func (r Result) UtilizationReport() string {
	if r.Cycles == 0 {
		return "idle"
	}
	kinds := make([]string, 0, len(r.UnitBusy))
	for k := range r.UnitBusy {
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	s := ""
	for _, k := range kinds {
		s += fmt.Sprintf("%s=%.0f%% ", k, 100*float64(r.UnitBusy[machine.UnitKind(k)])/float64(r.Cycles))
	}
	return s
}
