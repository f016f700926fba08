package tetris

import (
	"fmt"
	"sync"

	"perfpredict/internal/ir"
	"perfpredict/internal/machine"
)

// Options tune the estimator; the zero value gives the paper's default
// behaviour (dependence-honoring placement, unlimited focus span).
type Options struct {
	// FocusSpan bounds how far below the highest occupied slot the
	// search may reach (§2.1: "only a certain number of slots … under
	// the highest occupied time slot need to be considered"); 0 means
	// unlimited.
	FocusSpan int
	// MayAlias makes memory dependence conservative across different
	// subscripts of the same array.
	MayAlias bool
	// IgnoreDeps drops the dependence filter (ablation: pure bin
	// packing, a lower bound).
	IgnoreDeps bool
}

// Result is the cost estimate for one straight-line block.
type Result struct {
	// Cost is the makespan in cycles: highest − lowest occupied slot,
	// including the trailing coverable latency of the final operations
	// ("if no other executable operations can be found to fill the
	// coverable cycle, then the operation will cost two cycles").
	Cost int
	// Start and End bound the occupied region in absolute slots.
	Start, End int
	// PlaceTime holds the issue slot of each instruction.
	PlaceTime []int
	// Shape is the block's cost block (Figure 8).
	Shape CostBlock
}

// Scratch is the working state of a placement, reused across calls:
// the per-instruction placement arrays, the dependence tables, the
// bins and the replicated block of a steady-state estimate. It holds
// no machine-derived tables: those live in the target's compiled form
// (machine.Compiled), which every call reads directly, so one Scratch
// serves any target without rebuilding anything. Every slice grows to
// a high-water mark and is resliced, never remade, so a warm Scratch
// stops allocating across heterogeneous blocks and targets.
//
// A caller that prices many blocks on one goroutine keeps a Scratch
// and calls its methods; the package functions take one from a pool.
// A Scratch must not be used by two goroutines at once.
type Scratch struct {
	place  []int
	finish []int
	// isMem caches Instrs[i].Op.IsMem() so the dependence scan reads a
	// dense bool instead of chasing into the instruction array; slot i
	// is written before any later instruction reads it, so the slice is
	// sized but never cleared.
	isMem []bool
	deps  ir.DepsBuf
	b     bins
	// rep holds the copies a steady-state estimate prices and then
	// discards.
	rep ir.Block
}

// scratchPool backs the package functions, which share the Scratch
// methods' implementation.
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// Estimate prices a straight-line block on m: the paper's approximate
// solution to the scheduling problem, placing each operation's cost
// object into the lowest time slots where all of its per-unit segments
// fit simultaneously, no earlier than its operands allow. The Result
// carries the placement and the block's cost-block shape; callers that
// need only the cost use (*Scratch).EstimateCost.
//
// Estimate is safe to call concurrently (per-call scratch state comes
// from a pool; m is only read).
func Estimate(m *machine.Machine, b *ir.Block, opt Options) (Result, error) {
	sc := scratchPool.Get().(*Scratch)
	defer scratchPool.Put(sc)
	return sc.Estimate(m, b, opt)
}

// Estimate is the package Estimate on sc.
func (sc *Scratch) Estimate(m *machine.Machine, b *ir.Block, opt Options) (Result, error) {
	return sc.estimate(m.Compiled(), b, opt, nil, true)
}

// EstimateCost is Estimate on sc without the Result's PlaceTime and
// Shape: the same placement, returning only Cost, Start and End. On a
// warm sc and a sealed target it allocates nothing.
func (sc *Scratch) EstimateCost(m *machine.Machine, b *ir.Block, opt Options) (Result, error) {
	return sc.estimate(m.Compiled(), b, opt, nil, false)
}

// estimate is the shared placement core. full asks for the Result's
// PlaceTime and Shape. A non-nil rec makes it record placement
// decisions for EstimateExplained; recording happens only at commit
// time (never inside the fit probes) and never alters a placement, so
// the rec == nil path is the plain Estimate byte for byte.
func (sc *Scratch) estimate(c *machine.Compiled, b *ir.Block, opt Options, rec *placeRecorder, full bool) (Result, error) {
	ct := c.Costs()
	bins := sc.prepare(c, opt)
	bins.rec = rec
	depsBuf := &sc.deps
	if rec != nil {
		// The recorder's builders walk the dependence rows after this
		// scratch is back in the pool, so compute them into the
		// recorder's own buffer instead of copying at capture time.
		depsBuf = &rec.depsBuf
	}
	deps := b.DepsInto(opt.MayAlias, depsBuf)
	sc.place = resetInts(sc.place, len(b.Instrs))
	sc.finish = resetInts(sc.finish, len(b.Instrs))
	if cap(sc.isMem) < len(b.Instrs) {
		sc.isMem = make([]bool, len(b.Instrs))
	}
	place, finish, isMem := sc.place, sc.finish, sc.isMem[:len(b.Instrs)]
	maxFinish := 0
	for i := range b.Instrs {
		in := &b.Instrs[i]
		oc := ct.Lookup(in.Op)
		if oc == nil {
			_, err := c.Lookup(in.Op) // produce the canonical error
			return Result{}, err
		}
		isMem[i] = in.Op.IsMem()
		if rec != nil {
			rec.curInstr = i
		}
		ready, dataReady := 0, 0
		if !opt.IgnoreDeps {
			for _, j := range deps[i] {
				// Register (data) dependences are split from memory
				// ordering so stores can be modelled as buffered.
				if isMem[j] {
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
		start, end, err := bins.place(oc, ready)
		if err != nil {
			return Result{}, fmt.Errorf("instr %d (%s): %w", i, b.InstrString(i), err)
		}
		if in.Op.IsStore() && dataReady+1 > end {
			// Pending-store queue: the unit slots execute early; the
			// memory effect completes once the datum arrives.
			end = dataReady + 1
		}
		place[i] = start
		finish[i] = end
		if end > maxFinish {
			maxFinish = end
		}
	}
	var res Result
	res.Start, res.End = bins.extent()
	if maxFinish > res.End {
		res.End = maxFinish
	}
	if res.End > res.Start {
		res.Cost = res.End - res.Start
	}
	if full {
		res.PlaceTime = append([]int(nil), place...)
		res.Shape = bins.costBlock(res.Start, res.End)
	}
	if rec != nil {
		rec.capture(c, bins, finish, res.End, deps)
	}
	return res, nil
}

// resetInts returns s resized to n with every element zeroed, reusing
// the backing array when it is large enough and growing it with
// headroom otherwise — the high-water mark keeps a pooled scratch from
// reallocating every time block sizes alternate.
func resetInts(s []int, n int) []int {
	if cap(s) < n {
		c := 2 * cap(s)
		if c < n {
			c = n + n/4
		}
		return make([]int, n, c)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// prepare resets the scratch's bins for one estimation on c, sizing
// the per-pipe state to c's pipe count. The bitmaps keep their word
// storage across calls and targets.
func (sc *Scratch) prepare(c *machine.Compiled, opt Options) *bins {
	b := &sc.b
	ct := c.Costs()
	n := len(ct.PipeKind)
	if cap(b.slots) < n {
		slots := make([]slotBitmap, n)
		copy(slots, b.slots[:cap(b.slots)])
		b.slots = slots
	} else {
		b.slots = b.slots[:n]
	}
	b.latEnd = resetInts(b.latEnd, n)
	if cap(b.usedGen) < n {
		// Fresh marks are zero, and fitGen never is, so no stale mark
		// can alias the current generation.
		b.usedGen = make([]uint32, n)
	} else {
		b.usedGen = b.usedGen[:n]
	}
	b.opt = opt
	b.kindPipes = ct.KindPipes
	b.kinds = ct.Kinds
	b.pipeKind = ct.PipeKind
	for i := range b.slots {
		b.slots[i].reset(64)
	}
	b.dispatch = b.dispatch[:0]
	b.top = 0
	b.haveOcc = false
	b.width = c.DispatchWidth()
	return b
}

// bins is the two-dimensional virtual architecture bin of Figure 3,
// with per-pipe occupancy held as uint64 bitmaps.
type bins struct {
	opt       Options
	kindPipes [][]int32 // kind index (from the cost table) → pipe indices
	kinds     []machine.UnitKind
	pipeKind  []int32 // pipe index → kind index
	slots     []slotBitmap
	// latEnd[i] tracks the furthest dependent-visible latency end per
	// pipe, so the cost block includes trailing coverable cycles.
	latEnd   []int
	dispatch []int // ops begun per cycle, indexed by cycle
	top      int   // highest noncov-occupied slot + 1
	haveOcc  bool
	width    int
	// chosen and usedGen are tryFit scratch: segment→pipe assignment and
	// per-pipe taken marks for the current candidate slot. A pipe is
	// taken iff usedGen[p] equals the current fit generation, so each
	// probe starts clean by bumping fitGen instead of clearing the
	// slice.
	chosen  []int32
	usedGen []uint32
	fitGen  uint32
	// rec, when non-nil, receives every committed segment placement
	// (EstimateExplained); the plain Estimate path always leaves it
	// nil. Set per call in estimate, never by prepare, so pooled
	// scratch cannot leak a recorder across calls.
	rec *placeRecorder
}

// dispatchAt returns the number of ops begun in cycle t.
func (b *bins) dispatchAt(t int) int {
	if t < len(b.dispatch) {
		return b.dispatch[t]
	}
	return 0
}

// incDispatch counts one op begun in cycle t.
func (b *bins) incDispatch(t int) {
	for len(b.dispatch) <= t {
		b.dispatch = append(b.dispatch, 0)
	}
	b.dispatch[t]++
}

// floor returns the lowest slot the focus span permits.
func (b *bins) floor() int {
	if b.opt.FocusSpan <= 0 || !b.haveOcc {
		return 0
	}
	f := b.top - b.opt.FocusSpan
	if f < 0 {
		f = 0
	}
	return f
}

// place drops an atomic-op sequence (executed serially) starting no
// earlier than ready; returns the first op's start slot and the
// sequence's dependent-visible end.
func (b *bins) place(oc *machine.OpCosts, ready int) (start, end int, err error) {
	if len(oc.Atoms) == 1 { // dominant case: one atomic op
		at := &oc.Atoms[0]
		t, err := b.placeOne(at, ready)
		if err != nil {
			return 0, 0, err
		}
		return t, t + int(at.Lat), nil
	}
	cur := ready
	start = -1
	for i := range oc.Atoms {
		at := &oc.Atoms[i]
		t, err := b.placeOne(at, cur)
		if err != nil {
			return 0, 0, err
		}
		if start == -1 {
			start = t
		}
		cur = t + int(at.Lat)
	}
	if start == -1 { // empty sequence: treat as zero-latency at ready
		start = ready
		cur = ready
	}
	return start, cur, nil
}

// placeOne finds the lowest t ≥ ready where every segment of atomic op
// at fits simultaneously (on some pipe of its kind) and the dispatch
// width at t is not exhausted, then occupies the slots.
func (b *bins) placeOne(at *machine.Atom, ready int) (int, error) {
	t := ready
	if f := b.floor(); t < f {
		t = f
	}
	const maxIter = 1 << 20
	for iter := 0; iter < maxIter; iter++ {
		tNext, ok := b.tryFit(at.Segs, t)
		if !ok {
			t = tNext
			continue
		}
		if b.width > 0 && b.dispatchAt(t) >= b.width {
			// Skip every width-exhausted cycle in one scan: they reject
			// any placement regardless of fit, so re-probing them one by
			// one is wasted work.
			t++
			for t < len(b.dispatch) && b.dispatch[t] >= b.width {
				t++
			}
			continue
		}
		// Commit.
		for s := range at.Segs {
			pipe := b.chosen[s]
			sg := &at.Segs[s]
			st, nc := int(sg.Start), int(sg.Noncov)
			if nc > 0 {
				b.slots[pipe].occupyFit(t+st, nc)
			}
			if b.rec != nil {
				b.rec.segs = append(b.rec.segs, segPlace{
					instr:  int32(b.rec.curInstr),
					pipe:   pipe,
					kind:   b.pipeKind[pipe],
					start:  int32(t + st),
					noncov: int32(nc),
				})
			}
			if e := t + int(sg.End); e > b.latEnd[pipe] {
				b.latEnd[pipe] = e
			}
			if occTop := t + st + nc; nc > 0 && occTop > b.top {
				b.top = occTop
			}
		}
		if at.Lat > 0 || len(at.Segs) > 0 {
			b.haveOcc = true
		}
		b.incDispatch(t)
		return t, nil
	}
	return 0, fmt.Errorf("tetris: no placement found for %s", at.Name)
}

// tryFit checks whether every segment of segs fits at base time t; on
// failure it returns the next candidate t to try. On success the
// segment→pipe assignment is left in b.chosen[:len(segs)].
func (b *bins) tryFit(segs []machine.Seg, t int) (tNext int, ok bool) {
	nseg := len(segs)
	if cap(b.chosen) < nseg {
		b.chosen = make([]int32, nseg)
	}
	chosen := b.chosen[:nseg]
	b.chosen = chosen
	b.fitGen++
	if b.fitGen == 0 { // wrap: stale marks could alias the new generation
		clear(b.usedGen[:cap(b.usedGen)])
		b.fitGen = 1
	}
	g := b.fitGen
	slots, usedGen, kindPipes := b.slots, b.usedGen, b.kindPipes
	bump := t + 1
	for s := range segs {
		sg := &segs[s]
		pipes := kindPipes[sg.Kind]
		st, nc := int(sg.Start), int(sg.Noncov)
		found := int32(-1)
		bestNext := -1
		if nc == 1 { // dominant case: probe one bit, no call
			slot := t + st
			wi := slot >> 6
			mask := uint64(1) << (uint(slot) & 63)
			for _, p := range pipes {
				if usedGen[p] == g {
					continue
				}
				if sw := slots[p].words; wi >= len(sw) || sw[wi]&mask == 0 {
					found = p
					break
				}
				nf := slots[p].nextFitQuick(slot, 1) - st
				if bestNext == -1 || nf < bestNext {
					bestNext = nf
				}
			}
		} else {
			for _, p := range pipes {
				if usedGen[p] == g {
					continue
				}
				if nc == 0 || slots[p].freeQuick(t+st, nc) {
					found = p
					break
				}
				nf := slots[p].nextFitQuick(t+st, nc) - st
				if bestNext == -1 || nf < bestNext {
					bestNext = nf
				}
			}
		}
		if found == -1 {
			if bestNext > bump {
				bump = bestNext
			}
			return bump, false
		}
		usedGen[found] = g
		chosen[s] = found
	}
	return 0, true
}

// extent returns the lowest occupied slot and the highest
// dependent-visible end over all pipes.
func (b *bins) extent() (lo, hi int) {
	lo, hi = -1, 0
	for i := range b.slots {
		f, _ := b.slots[i].extent()
		if f >= 0 && (lo == -1 || f < lo) {
			lo = f
		}
		if b.latEnd[i] > hi {
			hi = b.latEnd[i]
		}
	}
	if lo == -1 {
		lo = 0
	}
	return lo, hi
}

// costBlock summarizes the occupied region (Figure 8): each pipe's
// extent folds into its kind's row through the dense kind indices.
func (b *bins) costBlock(lo, hi int) CostBlock {
	cb := NewCostBlock(hi-lo, b.kinds)
	for i := range b.slots {
		if f, l := b.slots[i].extent(); f >= 0 {
			cb.rows[b.pipeKind[i]].add(f-lo, l-lo, b.slots[i].filledCount(hi))
		}
	}
	return cb
}
