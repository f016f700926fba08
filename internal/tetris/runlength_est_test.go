package tetris

// This file preserves the pre-bitmap estimator — the run-length
// slotList bins with array-of-structs machine.AtomicOp segments —
// exactly as it ran in production, renamed rl*. It is the baseline of
// BenchmarkTetrisEstimate (the ≥2× speedup gate is measured against it)
// and the reference of the estimator differential suite, which pins the
// bitmap/SoA kernel byte-identical to it over random blocks, machines,
// and options.

import (
	"fmt"
	"sync"

	"perfpredict/internal/ir"
	"perfpredict/internal/machine"
	"perfpredict/internal/source"
)

type rlScratch struct {
	mach   *machine.Machine
	machFP source.Fingerprint
	inst   []machine.UnitInstance
	byKind map[machine.UnitKind][]int
	place  []int
	finish []int
	deps   ir.DepsBuf
	b      rlBins
}

var rlPool = sync.Pool{New: func() any { return new(rlScratch) }}

// rlEstimate is the retired run-length implementation of Estimate.
func rlEstimate(m *machine.Machine, b *ir.Block, opt Options) (Result, error) {
	sc := rlPool.Get().(*rlScratch)
	defer rlPool.Put(sc)
	bins := sc.prepare(m, opt)
	deps := b.DepsInto(opt.MayAlias, &sc.deps)
	sc.place = resetInts(sc.place, len(b.Instrs))
	sc.finish = resetInts(sc.finish, len(b.Instrs))
	place, finish := sc.place, sc.finish
	maxFinish := 0
	for i, in := range b.Instrs {
		seq, err := m.Lookup(in.Op)
		if err != nil {
			return Result{}, err
		}
		ready, dataReady := 0, 0
		if !opt.IgnoreDeps {
			for _, j := range deps[i] {
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
		start, end, err := bins.place(seq, ready)
		if err != nil {
			return Result{}, fmt.Errorf("instr %d (%s): %w", i, b.InstrString(i), err)
		}
		if in.Op.IsStore() && dataReady+1 > end {
			end = dataReady + 1
		}
		place[i] = start
		finish[i] = end
		if end > maxFinish {
			maxFinish = end
		}
	}
	res := Result{PlaceTime: append([]int(nil), place...)}
	res.Start, res.End = bins.extent()
	if maxFinish > res.End {
		res.End = maxFinish
	}
	if res.End > res.Start {
		res.Cost = res.End - res.Start
	}
	res.Shape = bins.costBlock(m.Compiled().Costs().Kinds, res.Start, res.End)
	return res, nil
}

func (sc *rlScratch) prepare(m *machine.Machine, opt Options) *rlBins {
	if sc.mach != m || len(sc.inst) == 0 {
		fp := m.Fingerprint()
		if len(sc.inst) == 0 || fp != sc.machFP {
			sc.inst = m.Units()
			sc.byKind = make(map[machine.UnitKind][]int, 4)
			for i, u := range sc.inst {
				sc.byKind[u.Kind] = append(sc.byKind[u.Kind], i)
			}
			sc.b.slots = make([]slotList, len(sc.inst))
			sc.b.latEnd = make([]int, len(sc.inst))
			sc.b.used = make([]bool, len(sc.inst))
			sc.b.chosen = sc.b.chosen[:0]
		}
		sc.mach, sc.machFP = m, fp
	}
	b := &sc.b
	b.opt = opt
	b.inst, b.byKind = sc.inst, sc.byKind
	for i := range b.slots {
		b.slots[i].reset(64)
		b.latEnd[i] = 0
		b.used[i] = false
	}
	b.dispatch = b.dispatch[:0]
	b.top = 0
	b.haveOcc = false
	b.width = m.DispatchWidth
	return b
}

type rlBins struct {
	opt      Options
	inst     []machine.UnitInstance
	byKind   map[machine.UnitKind][]int
	slots    []slotList
	latEnd   []int
	dispatch []int
	top      int
	haveOcc  bool
	width    int
	chosen   []int
	used     []bool
}

func (b *rlBins) dispatchAt(t int) int {
	if t < len(b.dispatch) {
		return b.dispatch[t]
	}
	return 0
}

func (b *rlBins) incDispatch(t int) {
	for len(b.dispatch) <= t {
		b.dispatch = append(b.dispatch, 0)
	}
	b.dispatch[t]++
}

func (b *rlBins) floor() int {
	if b.opt.FocusSpan <= 0 || !b.haveOcc {
		return 0
	}
	f := b.top - b.opt.FocusSpan
	if f < 0 {
		f = 0
	}
	return f
}

func (b *rlBins) place(seq []machine.AtomicOp, ready int) (start, end int, err error) {
	cur := ready
	start = -1
	for _, a := range seq {
		t, err := b.placeOne(a, cur)
		if err != nil {
			return 0, 0, err
		}
		if start == -1 {
			start = t
		}
		cur = t + a.Latency()
	}
	if start == -1 {
		start = ready
		cur = ready
	}
	return start, cur, nil
}

func (b *rlBins) placeOne(a machine.AtomicOp, ready int) (int, error) {
	t := ready
	if f := b.floor(); t < f {
		t = f
	}
	const maxIter = 1 << 20
	for iter := 0; iter < maxIter; iter++ {
		chosen, tNext, ok := b.tryFit(a, t)
		if !ok {
			t = tNext
			continue
		}
		if b.width > 0 && b.dispatchAt(t) >= b.width {
			t++
			continue
		}
		for si, seg := range a.Segments {
			pipe := chosen[si]
			if seg.Noncov > 0 {
				b.slots[pipe].occupy(t+seg.Start, seg.Noncov)
			}
			if e := t + seg.End(); e > b.latEnd[pipe] {
				b.latEnd[pipe] = e
			}
			if occTop := t + seg.Start + seg.Noncov; seg.Noncov > 0 && occTop > b.top {
				b.top = occTop
			}
		}
		if a.Latency() > 0 || len(a.Segments) > 0 {
			b.haveOcc = true
		}
		b.incDispatch(t)
		return t, nil
	}
	return 0, fmt.Errorf("tetris: no placement found for %s", a.Name)
}

func (b *rlBins) tryFit(a machine.AtomicOp, t int) (chosen []int, tNext int, ok bool) {
	if cap(b.chosen) < len(a.Segments) {
		b.chosen = make([]int, len(a.Segments))
	}
	chosen = b.chosen[:len(a.Segments)]
	for i := range b.used {
		b.used[i] = false
	}
	bump := t + 1
	for si, seg := range a.Segments {
		pipes := b.byKind[seg.Unit]
		found := -1
		bestNext := -1
		for _, p := range pipes {
			if b.used[p] {
				continue
			}
			if seg.Noncov == 0 || b.slots[p].free(t+seg.Start, seg.Noncov) {
				found = p
				break
			}
			nf := b.slots[p].nextFit(t+seg.Start, seg.Noncov) - seg.Start
			if bestNext == -1 || nf < bestNext {
				bestNext = nf
			}
		}
		if found == -1 {
			if bestNext > bump {
				bump = bestNext
			}
			return nil, bump, false
		}
		b.used[found] = true
		chosen[si] = found
	}
	return chosen, 0, true
}

func (b *rlBins) extent() (lo, hi int) {
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

func (b *rlBins) costBlock(kinds []machine.UnitKind, lo, hi int) CostBlock {
	cb := NewCostBlock(hi-lo, kinds)
	for i, u := range b.inst {
		if f, l := b.slots[i].extent(); f >= 0 {
			cb.AddPipe(u.Kind, f-lo, l-lo, b.slots[i].filledCount(hi))
		}
	}
	return cb
}
