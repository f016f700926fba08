package tetris

import (
	"sync"

	"perfpredict/internal/ir"
	"perfpredict/internal/machine"
)

// This file is the diagnosis side of the estimator: EstimateExplained
// re-runs the exact placement of Estimate through a recorder and turns
// the committed schedule into an explanation — where every op landed,
// which unit saturates first, and which chain of dependence and
// resource edges binds the makespan. The recorder only observes
// commits, so the explained schedule is the plain schedule; the
// invariant suite (internal/invariants) proves the byte-identity.

// placeRecorder captures placement decisions as estimate commits them.
// Recorders are pooled: every slice below grows to a high-water mark
// and is resliced per call, and the explanation builders copy rather
// than alias, so a recorder never escapes into an Explanation.
type placeRecorder struct {
	curInstr  int        // instruction being placed (set by estimate)
	segs      []segPlace // every committed segment occupancy, in commit order
	finish    []int      // dependent-visible end per instruction
	pipes     []machine.UnitInstance
	pipeNames []string // pipes[i].String(), built once per capture
	pipeBusy  []int    // noncoverable slots filled per pipe below End
	kinds     []machine.UnitKind
	// kpOff/kpFlat are the kind → pipe-index lists in flattened form:
	// kind k's pipes are kpFlat[kpOff[k]:kpOff[k+1]].
	kpOff  []int
	kpFlat []int32
	// depsBuf backs the dependence rows when recording: estimate
	// computes deps straight into the recorder's buffer, so the rows in
	// deps stay valid for the builders with no copy.
	depsBuf ir.DepsBuf
	deps    [][]int
	// opLat[op] is the total dependent-visible latency of each mapped
	// basic op, folded out of the cost table (depHeight reads it
	// instead of re-walking the machine table).
	opLat []int32
	// needKinds is blocker scratch: the kind indices of the current
	// path step's segments.
	needKinds []int32
	// owner is blocker scratch: owner[k*span + (slot-start)] is the
	// latest instruction whose noncoverable occupancy of kind k covers
	// the slot, or -1.
	owner     []int32
	ownerLo   int
	ownerSpan int
	// buildPath scratch: per-instruction segment ranges and the raw
	// backward walk (instr, edge code, unit-kind index) recorded before
	// the exact-size []PathStep is allocated.
	segLo     []int32
	segHi     []int32
	pathInstr []int32
	pathEdge  []int8
	pathUnit  []int32
	// satCounts is saturationSlot's per-slot busy-pipe counter.
	satCounts []int32
	// dhFinish is depHeight's per-instruction finish scratch.
	dhFinish []int
	// mach gates the machine-derived tables above: a capture on the
	// same compiled target (immutable, so identity is content) reuses
	// them untouched.
	mach *machine.Compiled
}

var recPool = sync.Pool{New: func() any { return new(placeRecorder) }}

// depRow returns instruction i's dependence predecessors.
func (rec *placeRecorder) depRow(i int) []int {
	return rec.deps[i]
}

// kindRow returns the pipe indices of kind k.
func (rec *placeRecorder) kindRow(k int) []int32 {
	return rec.kpFlat[rec.kpOff[k]:rec.kpOff[k+1]]
}

// segPlace is one committed segment: instruction, pipe, and the
// occupied noncoverable interval [start, start+noncov).
type segPlace struct {
	instr  int32
	pipe   int32
	kind   int32 // index into placeRecorder.kinds
	start  int32
	noncov int32
}

// capture copies everything the explanation builder needs out of the
// pooled scratch before estimate returns it to the pool.
func (rec *placeRecorder) capture(c *machine.Compiled, b *bins, finish []int, end int, deps [][]int) {
	rec.deps = deps // rows live in rec.depsBuf, not the pooled scratch
	rec.finish = append(rec.finish[:0], finish...)
	// Everything derived from the machine alone — pipe inventory and
	// names, per-op latencies, kind tables — survives across captures on
	// the same compiled target.
	if rec.mach != c {
		rec.mach = c
		ct := c.Costs()
		rec.pipes = append(rec.pipes[:0], c.Units()...)
		rec.pipeNames = rec.pipeNames[:0]
		for _, p := range rec.pipes {
			rec.pipeNames = append(rec.pipeNames, p.String())
		}
		nop := int(ct.MaxOp()) + 1
		if cap(rec.opLat) < nop {
			rec.opLat = make([]int32, nop)
		}
		rec.opLat = rec.opLat[:nop]
		for op := range rec.opLat {
			lat := int32(1) // unmapped ops never reach capture; keep Latency's fallback
			if oc := ct.Lookup(ir.Op(op)); oc != nil {
				lat = 0
				for _, at := range oc.Atoms {
					lat += at.Lat
				}
			}
			rec.opLat[op] = lat
		}
		rec.kinds = append(rec.kinds[:0], ct.Kinds...)
		rec.kpOff = append(rec.kpOff[:0], 0)
		rec.kpFlat = rec.kpFlat[:0]
		for _, ps := range ct.KindPipes {
			rec.kpFlat = append(rec.kpFlat, ps...)
			rec.kpOff = append(rec.kpOff, len(rec.kpFlat))
		}
	}
	rec.pipeBusy = resetInts(rec.pipeBusy, len(b.slots))
	for i := range b.slots {
		rec.pipeBusy[i] = b.slots[i].filledCount(end)
	}
}

// PipeUse is the occupancy of one physical pipe over the schedule.
type PipeUse struct {
	Pipe string // e.g. "FPU#0"
	Kind machine.UnitKind
	Busy int // noncoverable slots occupied within the makespan
	// Utilization is Busy / Cost, in [0, 1].
	Utilization float64
}

// KindUse aggregates a unit kind's pipes.
type KindUse struct {
	Kind  machine.UnitKind
	Pipes int
	Busy  int // summed over the kind's pipes
	// Utilization is Busy / (Pipes × Cost), in [0, 1].
	Utilization float64
}

// Edge kinds of a critical-path step: what bound the step to its
// predecessor on the path.
const (
	EdgeDep      = "dep"      // a data/memory dependence: the producer's finish set the ready time
	EdgeResource = "resource" // every pipe of the needed kind was occupied through the wait window
	EdgeDispatch = "dispatch" // the dispatch width (or focus span) delayed the issue
)

// PathStep is one instruction on the binding critical path. Edge names
// the constraint that chains it to the previous (earlier) step; the
// first step has Edge "" — nothing held it back.
type PathStep struct {
	Instr  int
	Start  int // issue slot
	Finish int // dependent-visible end
	Edge   string
	// Unit is the contended unit kind for EdgeResource steps.
	Unit machine.UnitKind
}

// WhatIf is the one-more-pipe experiment: the same block re-priced on
// a machine with one extra pipe of the bottleneck kind.
type WhatIf struct {
	Unit  machine.UnitKind
	Pipes int // pipe count after adding one
	Cost  int // re-estimated makespan
	// Speedup is baseline cost / Cost; > 1 means the extra pipe helps.
	Speedup float64
}

// Explanation is the full diagnosis of one block's schedule.
//
// Per-op placements are struct-of-arrays: instruction i issued at
// Result.PlaceTime[i], became visible to dependents at Finish[i], and
// its first segment ran on Pipes[OpPipe[i]].
type Explanation struct {
	// Result is exactly what Estimate returns for the same inputs.
	Result Result
	// Finish[i] is instruction i's dependent-visible end slot.
	Finish []int
	// OpPipe[i] indexes Pipes with the pipe of instruction i's first
	// committed segment; -1 for an instruction occupying no pipe.
	OpPipe []int
	Pipes  []PipeUse
	// Kinds is sorted by unit kind; only kinds with at least one pipe
	// appear.
	Kinds []KindUse
	// Bottleneck is the first-saturating resource: the unit kind with
	// the highest utilization (ties break to the lexicographically
	// smaller kind). Empty for an empty schedule.
	Bottleneck     machine.UnitKind
	BottleneckUtil float64
	// SaturatedAt is the earliest slot where every pipe of the
	// bottleneck kind is simultaneously busy; -1 if that never happens.
	SaturatedAt int
	// Path is the binding critical path, earliest step first. Its head
	// is the op whose finish closes the schedule; each step names the
	// edge whose relaxation would have let it start earlier.
	Path []PathStep
	// PathCycles is the span the path explains: the head's finish
	// minus the block's first occupied slot. Always ≤ Result.Cost.
	PathCycles int
	// DepHeight is the infinite-resource dependence height of the
	// block: the finish time with every resource and dispatch
	// constraint removed. It lower-bounds the end of any schedule that
	// honors the dependence rules — including the exact oracle's.
	DepHeight int
	// WhatIf is filled by ComputeWhatIf; nil otherwise.
	WhatIf *WhatIf
}

// EstimateExplained prices b exactly as Estimate does and returns the
// schedule diagnosis alongside the result. The placement is shared
// code with Estimate — the recorder only observes commits — so
// ex.Result always equals Estimate(m, b, opt).
func EstimateExplained(m *machine.Machine, b *ir.Block, opt Options) (*Explanation, error) {
	rec := recPool.Get().(*placeRecorder)
	defer recPool.Put(rec)
	rec.curInstr = 0
	rec.segs = rec.segs[:0]
	res, err := estimate(m.Compiled(), b, opt, rec, true)
	if err != nil {
		return nil, err
	}
	ex := &Explanation{Result: res, SaturatedAt: -1}
	ex.buildOps(b, rec)
	ex.buildUsage(rec)
	ex.buildPath(b, opt, rec)
	ex.DepHeight = depHeight(m, b, opt, rec)
	return ex, nil
}

// ComputeWhatIf re-prices the block on a copy of m with one extra
// pipe of the bottleneck kind and records the predicted speedup. It
// costs one extra Estimate, so it is split from EstimateExplained and
// invoked only where the caller wants the experiment.
func (ex *Explanation) ComputeWhatIf(m *machine.Machine, b *ir.Block, opt Options) error {
	if ex.Bottleneck == "" {
		return nil
	}
	m2, err := machine.WithExtraPipe(m, ex.Bottleneck)
	if err != nil {
		return err
	}
	res, err := Estimate(m2, b, opt)
	if err != nil {
		return err
	}
	w := &WhatIf{Unit: ex.Bottleneck, Pipes: m2.UnitCounts[ex.Bottleneck], Cost: res.Cost, Speedup: 1}
	if res.Cost > 0 {
		w.Speedup = float64(ex.Result.Cost) / float64(res.Cost)
	}
	ex.WhatIf = w
	return nil
}

// buildOps fills the per-op placement arrays and, in the same pass
// over the committed segments, the recorder's per-instruction segment
// ranges (segments land in program order, so each op's share is
// contiguous) that buildPath's resource queries reuse.
func (ex *Explanation) buildOps(b *ir.Block, rec *placeRecorder) {
	n := len(b.Instrs)
	ex.Finish = append(make([]int, 0, n), rec.finish...)
	ex.OpPipe = make([]int, n)
	for i := range ex.OpPipe {
		ex.OpPipe[i] = -1
	}
	segLo := resetInt32s(rec.segLo, n, -1)
	segHi := resetInt32s(rec.segHi, n, 0)
	for si, s := range rec.segs {
		if segLo[s.instr] < 0 {
			segLo[s.instr] = int32(si)
			ex.OpPipe[s.instr] = int(s.pipe)
		}
		segHi[s.instr] = int32(si + 1)
	}
	rec.segLo, rec.segHi = segLo, segHi
}

func (ex *Explanation) buildUsage(rec *placeRecorder) {
	cost := ex.Result.Cost
	ex.Pipes = make([]PipeUse, len(rec.pipes))
	for i, p := range rec.pipes {
		u := PipeUse{Pipe: rec.pipeNames[i], Kind: p.Kind, Busy: rec.pipeBusy[i]}
		if cost > 0 {
			u.Utilization = float64(u.Busy) / float64(cost)
		}
		ex.Pipes[i] = u
	}
	ex.Kinds = make([]KindUse, 0, len(rec.kinds))
	for ki, kind := range rec.kinds {
		pipes := rec.kindRow(ki)
		if len(pipes) == 0 {
			// A kind referenced by the cost table with no pipes on the
			// machine; placement would have failed had it been needed.
			continue
		}
		ku := KindUse{Kind: kind, Pipes: len(pipes)}
		for _, p := range pipes {
			ku.Busy += rec.pipeBusy[p]
		}
		if cost > 0 {
			ku.Utilization = float64(ku.Busy) / float64(len(pipes)*cost)
		}
		ex.Kinds = append(ex.Kinds, ku)
	}
	// Insertion sort: a machine has a handful of kinds, and sort.Slice
	// would allocate a reflect swapper per call on this hot path.
	for i := 1; i < len(ex.Kinds); i++ {
		for j := i; j > 0 && ex.Kinds[j].Kind < ex.Kinds[j-1].Kind; j-- {
			ex.Kinds[j], ex.Kinds[j-1] = ex.Kinds[j-1], ex.Kinds[j]
		}
	}
	for _, ku := range ex.Kinds {
		if ku.Busy == 0 {
			continue
		}
		if ku.Utilization > ex.BottleneckUtil {
			ex.Bottleneck, ex.BottleneckUtil = ku.Kind, ku.Utilization
		}
	}
	ex.SaturatedAt = ex.saturationSlot(rec)
}

// saturationSlot finds the earliest slot where every pipe of the
// bottleneck kind is busy at once.
func (ex *Explanation) saturationSlot(rec *placeRecorder) int {
	if ex.Bottleneck == "" || ex.Result.End <= ex.Result.Start {
		return -1
	}
	var want int
	ki := int32(-1)
	for i, k := range rec.kinds {
		if k == ex.Bottleneck {
			ki = int32(i)
			want = len(rec.kindRow(i))
			break
		}
	}
	if ki < 0 || want == 0 {
		return -1
	}
	counts := resetInt32s(rec.satCounts, ex.Result.End-ex.Result.Start, 0)
	rec.satCounts = counts
	for _, s := range rec.segs {
		if s.kind != ki {
			continue
		}
		for t := int(s.start); t < int(s.start+s.noncov); t++ {
			if r := t - ex.Result.Start; r >= 0 && r < len(counts) {
				counts[r]++
			}
		}
	}
	for r, c := range counts {
		if int(c) >= want {
			return ex.Result.Start + r
		}
	}
	return -1
}

// buildPath walks backward from the op that closes the schedule,
// following at each step the constraint that bound its issue slot: the
// dominating dependence (dep edge), the op whose occupancy kept every
// candidate pipe full (resource edge), or — when neither applies — the
// latest earlier issue (dispatch edge). Every predecessor has a
// strictly smaller instruction index, so the walk terminates.
func (ex *Explanation) buildPath(b *ir.Block, opt Options, rec *placeRecorder) {
	n := len(b.Instrs)
	if n == 0 {
		return
	}
	place, finish := ex.Result.PlaceTime, rec.finish
	head := 0
	for i := 1; i < n; i++ {
		if finish[i] > finish[head] {
			head = i
		}
	}
	rec.ownerSpan = -1 // owner index built lazily on the first resource query

	// Walk backward into pooled scratch first — every predecessor has a
	// strictly smaller instruction index (dependences point backward,
	// blocker and latestIssueBefore only return earlier ops), so the
	// walk terminates and the path length is known before the
	// exact-size []PathStep is allocated.
	const (
		edgeNone = int8(iota)
		edgeDep
		edgeResource
		edgeDispatch
	)
	pi, pe, pu := rec.pathInstr[:0], rec.pathEdge[:0], rec.pathUnit[:0]
	cur := head
	for cur >= 0 && len(pi) <= n {
		in := &b.Instrs[cur]
		edge, unit := edgeNone, int32(-1)

		ready, dataReady, depM, depD := 0, 0, -1, -1
		if !opt.IgnoreDeps {
			for _, j := range rec.depRow(cur) {
				if b.Instrs[j].Op.IsMem() {
					if finish[j] > ready {
						ready, depM = finish[j], j
					}
				} else if finish[j] > dataReady {
					dataReady, depD = finish[j], j
				}
			}
		}
		depj := depM
		if !in.Op.IsStore() && dataReady > ready {
			ready, depj = dataReady, depD
		}

		pred := -1
		switch {
		case in.Op.IsStore() && depD >= 0 && finish[cur] == dataReady+1 && finish[cur] > place[cur]:
			// The buffered store's completion is set by the datum's
			// arrival, not by its unit slots: the data producer binds.
			edge, pred = edgeDep, depD
		case place[cur] > ready:
			if j, ki := blocker(rec, cur, ready, place[cur], ex.Result.Start, ex.Result.End); j >= 0 {
				edge, unit, pred = edgeResource, ki, j
			} else if j := latestIssueBefore(place, cur); j >= 0 {
				edge, pred = edgeDispatch, j
			}
		case depj >= 0 && ready > 0:
			edge, pred = edgeDep, depj
		}
		pi, pe, pu = append(pi, int32(cur)), append(pe, edge), append(pu, unit)
		cur = pred
	}
	rec.pathInstr, rec.pathEdge, rec.pathUnit = pi, pe, pu

	// Materialize in chronological order; the earliest step's Edge (the
	// walk's last) is already none when the chain reached an op that
	// nothing held back.
	steps := make([]PathStep, len(pi))
	for i := range steps {
		k := len(pi) - 1 - i
		c := int(pi[k])
		st := PathStep{Instr: c, Start: place[c], Finish: finish[c]}
		switch pe[k] {
		case edgeDep:
			st.Edge = EdgeDep
		case edgeResource:
			st.Edge, st.Unit = EdgeResource, rec.kinds[pu[k]]
		case edgeDispatch:
			st.Edge = EdgeDispatch
		}
		steps[i] = st
	}
	ex.Path = steps
	if pc := finish[head] - ex.Result.Start; pc > 0 {
		ex.PathCycles = pc
	}
}

// buildOwnerIndex fills rec.owner: for every kind and every slot of
// the occupied region, the latest instruction whose noncoverable
// occupancy of that kind covers the slot. Built once per explanation,
// it makes every blocker query a few array reads.
func (rec *placeRecorder) buildOwnerIndex(lo, hi int) {
	span := hi - lo
	if span <= 0 {
		rec.ownerSpan = 0
		return
	}
	rec.ownerLo, rec.ownerSpan = lo, span
	n := len(rec.kinds) * span
	if cap(rec.owner) < n {
		rec.owner = make([]int32, n)
	}
	rec.owner = rec.owner[:n]
	for i := range rec.owner {
		rec.owner[i] = -1
	}
	for si := range rec.segs {
		s := &rec.segs[si]
		if s.noncov == 0 {
			continue
		}
		row := rec.owner[int(s.kind)*span : (int(s.kind)+1)*span]
		for t := int(s.start); t < int(s.start+s.noncov); t++ {
			if r := t - lo; r >= 0 && r < span && s.instr > row[r] {
				row[r] = s.instr
			}
		}
	}
}

// blocker finds the earlier instruction whose occupancy on a pipe
// kind cur needs overlaps cur's wait window [ready, start): scanning
// the owner index from the stall point downward, the first covered
// slot's latest owner wins (the op still holding the pipe when cur
// finally issued). Returns -1 when no earlier occupancy explains the
// delay (a dispatch stall).
func blocker(rec *placeRecorder, cur, ready, start, lo, hi int) (int, int32) {
	if rec.ownerSpan == -1 {
		rec.buildOwnerIndex(lo, hi)
	}
	if rec.ownerSpan == 0 {
		return -1, -1
	}
	needs := rec.needKinds[:0]
	if rec.segLo[cur] >= 0 {
	collect:
		for si := rec.segLo[cur]; si < rec.segHi[cur]; si++ {
			k := rec.segs[si].kind
			for _, have := range needs {
				if have == k {
					continue collect
				}
			}
			needs = append(needs, k)
		}
	}
	rec.needKinds = needs
	for t := start - 1; t >= ready; t-- {
		r := t - rec.ownerLo
		if r < 0 || r >= rec.ownerSpan {
			continue
		}
		best, bestKind := int32(-1), int32(-1)
		for _, k := range needs {
			if o := rec.owner[int(k)*rec.ownerSpan+r]; o > best && int(o) < cur {
				best, bestKind = o, k
			}
		}
		if best >= 0 {
			return int(best), bestKind
		}
	}
	return -1, -1
}

// resetInt32s reslices s to n elements, all set to fill, growing the
// backing array only past its high-water mark.
func resetInt32s(s []int32, n int, fill int32) []int32 {
	if cap(s) < n {
		s = make([]int32, n, n+n/4)
	}
	s = s[:n]
	for i := range s {
		s[i] = fill
	}
	return s
}

// latestIssueBefore picks the latest-issued earlier instruction (the
// latest index among those with maximal issue slot ≤ cur's): the
// stand-in predecessor for a dispatch-width (or focus-span) stall.
// Scanning backward lets it stop at the first same-slot neighbor,
// which on dispatch-bound blocks is almost always adjacent.
func latestIssueBefore(place []int, cur int) int {
	best := -1
	for j := cur - 1; j >= 0; j-- {
		if place[j] > place[cur] {
			continue
		}
		if best < 0 || place[j] > place[best] {
			best = j
			if place[j] == place[cur] {
				break
			}
		}
	}
	return best
}

// depHeight computes the block's finish time with every resource and
// dispatch constraint removed: each op starts the moment its operands
// allow, under the same ready rules as placement (buffered stores
// included). The result lower-bounds the End of any schedule honoring
// those rules, whatever its order — the differential tests hold it
// against the exact oracle.
func depHeight(m *machine.Machine, b *ir.Block, opt Options, rec *placeRecorder) int {
	finish := resetInts(rec.dhFinish, len(b.Instrs))
	rec.dhFinish = finish
	h := 0
	for i := range b.Instrs {
		in := &b.Instrs[i]
		ready, dataReady := 0, 0
		if !opt.IgnoreDeps {
			for _, j := range rec.depRow(i) {
				if b.Instrs[j].Op.IsMem() {
					if finish[j] > ready {
						ready = finish[j]
					}
				} else if finish[j] > dataReady {
					dataReady = finish[j]
				}
			}
		}
		if !in.Op.IsStore() && dataReady > ready {
			ready = dataReady
		}
		lat := 0
		if int(in.Op) >= 0 && int(in.Op) < len(rec.opLat) {
			lat = int(rec.opLat[in.Op])
		} else {
			lat = m.Latency(in.Op)
		}
		end := ready + lat
		if in.Op.IsStore() && dataReady+1 > end {
			end = dataReady + 1
		}
		finish[i] = end
		if end > h {
			h = end
		}
	}
	return h
}
