package tetris

import (
	"slices"
	"sync"

	"perfpredict/internal/ir"
	"perfpredict/internal/machine"
)

// CostBlock is the geometric summary of a priced basic block (Figure
// 8): the area between the first and last occupied time slots, with
// per-unit-kind extents. Shapes are cheap to combine, which is how the
// paper aggregates adjacent blocks without re-running placement
// (Figure 9).
type CostBlock struct {
	// Height is the block's total cost in cycles.
	Height int
	// First and Last give, per unit kind, the first and last occupied
	// slot relative to the block start (absent if the kind is unused).
	First, Last map[machine.UnitKind]int
	// Busy counts occupied (noncoverable) slots per unit kind.
	Busy map[machine.UnitKind]int
}

// Utilization returns Busy/Height for the given kind (0 when unused or
// the block is empty).
func (cb CostBlock) Utilization(k machine.UnitKind) float64 {
	if cb.Height == 0 {
		return 0
	}
	return float64(cb.Busy[k]) / float64(cb.Height)
}

// CriticalUnit returns the unit kind with the highest utilization —
// the bin whose occupied/empty ratio the compiler inspects to decide
// whether reordering or unrolling is beneficial (§2.4.2).
func (cb CostBlock) CriticalUnit() (machine.UnitKind, float64) {
	var best machine.UnitKind
	bestU := -1.0
	for k := range cb.Busy {
		if u := cb.Utilization(k); u > bestU || (u == bestU && k < best) {
			best, bestU = k, u
		}
	}
	if bestU < 0 {
		return "", 0
	}
	return best, bestU
}

// Concat estimates the cost of running block a followed by block b by
// matching the bottom shape of a against the top shape of b (Figure
// 9): b is shifted up as far as the per-unit extents allow without two
// noncoverable regions overlapping in any unit kind. It returns the
// combined shape and the cycles saved versus sequential execution.
func Concat(a, b CostBlock) (combined CostBlock, saved int) {
	// Minimal legal offset for b relative to a's start.
	offset := 0
	for k, bFirst := range b.First {
		aLast, ok := a.Last[k]
		if !ok {
			continue
		}
		if need := aLast + 1 - bFirst; need > offset {
			offset = need
		}
	}
	if offset < 0 {
		offset = 0
	}
	height := a.Height
	if h := offset + b.Height; h > height {
		height = h
	}
	combined = CostBlock{
		Height: height,
		First:  map[machine.UnitKind]int{},
		Last:   map[machine.UnitKind]int{},
		Busy:   map[machine.UnitKind]int{},
	}
	for k, v := range a.First {
		combined.First[k] = v
	}
	for k, v := range a.Last {
		combined.Last[k] = v
	}
	for k, v := range a.Busy {
		combined.Busy[k] += v
	}
	for k, v := range b.First {
		if cur, ok := combined.First[k]; !ok || offset+v < cur {
			combined.First[k] = offset + v
		}
	}
	for k, v := range b.Last {
		if cur, ok := combined.Last[k]; !ok || offset+v > cur {
			combined.Last[k] = offset + v
		}
	}
	for k, v := range b.Busy {
		combined.Busy[k] += v
	}
	saved = a.Height + b.Height - height
	if saved < 0 {
		saved = 0
	}
	return combined, saved
}

// SelfConcat estimates the steady-state per-iteration cost of a loop
// whose body has shape cb, by repeatedly matching the shape against
// itself — the cheap variant of the paper's two unrolling estimators.
func SelfConcat(cb CostBlock, iters int) (total int, perIter float64) {
	if iters <= 0 {
		return 0, 0
	}
	cur := cb
	for i := 1; i < iters; i++ {
		cur, _ = Concat(cur, cb)
	}
	return cur.Height, float64(cur.Height) / float64(iters)
}

// Replicate builds a block containing iters renamed copies of b, as if
// the loop body were unrolled with independent iterations: registers
// are renamed per copy and indexed memory addresses are tagged with the
// copy number (scalar addresses are left alone, preserving reduction
// chains). This is the paper's second unrolling estimator: "dropping
// the innermost basic block into the functional bins multiple times".
func Replicate(b *ir.Block, iters int) *ir.Block {
	iters = max(iters, 0)
	out := &ir.Block{Instrs: make([]ir.Instr, 0, len(b.Instrs)*iters), Extra: make([]ir.Reg, 0, len(b.Extra)*iters), Names: b.Names}
	replicateInto(out, b, iters)
	return out
}

// replicateInto appends the iters renamed copies of b that Replicate
// describes to out. Copy it > 0 tags an indexed address by adding
// it·span to its Sym, span exceeding every address of b, so each copy
// names locations of its own.
func replicateInto(out, b *ir.Block, iters int) {
	stride := int32(b.MaxReg()) + 1
	span := ir.Sym(1)
	for i := range b.Instrs {
		span = max(span, b.Instrs[i].Addr+1)
	}
	for it := 0; it < iters; it++ {
		off := ir.Reg(int32(it) * stride)
		for i := range b.Instrs {
			k := out.AppendFrom(b, i)
			srcs := out.Srcs(k)
			for j, s := range srcs {
				if s != ir.NoReg {
					srcs[j] = s + off
				}
			}
			c := &out.Instrs[k]
			if c.Dst != ir.NoReg {
				c.Dst += off
			}
			if it > 0 && c.Op.IsMem() && c.Addr != 0 && c.Addr != c.Base {
				c.Addr += ir.Sym(it) * span
			}
		}
	}
}

// repScratch is pooled storage for the replicated block a steady-state
// estimate prices and then discards, grown to a high-water mark.
type repScratch struct {
	blk ir.Block
}

var repPool = sync.Pool{New: func() any { return new(repScratch) }}

// SteadyState prices iters independent copies of b and returns the
// amortized per-iteration cost.
func SteadyState(m *machine.Machine, b *ir.Block, opt Options, iters int) (perIter float64, total int, err error) {
	return SteadyStateChained(m, b, opt, iters, nil)
}

// SteadyStateChained prices iters copies of b with register-carried
// recurrences preserved: chain maps each copy's loop-entry register
// (e.g. a promoted accumulator) to the register holding its value at
// the copy's end, so copy k's read depends on copy k−1's result — the
// serial chain of a sum reduction kept in a register. The copies are
// built by Replicate's routine into pooled storage and priced cost
// only.
func SteadyStateChained(m *machine.Machine, b *ir.Block, opt Options, iters int, chain map[ir.Reg]ir.Reg) (perIter float64, total int, err error) {
	if iters <= 0 {
		iters = 1
	}
	rs := repPool.Get().(*repScratch)
	defer repPool.Put(rs)
	rep := &rs.blk
	rep.Names = b.Names
	defer func() { rep.Names = nil }() // the pool must not keep the table alive
	rep.Instrs = slices.Grow(rep.Instrs[:0], len(b.Instrs)*iters)
	rep.Extra = slices.Grow(rep.Extra[:0], len(b.Extra)*iters)
	replicateInto(rep, b, iters)
	if len(chain) > 0 {
		stride := int32(b.MaxReg()) + 1
		n := len(b.Instrs)
		for it := 1; it < iters; it++ {
			off := ir.Reg(int32(it) * stride)
			prevOff := ir.Reg(int32(it-1) * stride)
			for i := it * n; i < (it+1)*n; i++ {
				srcs := rep.Srcs(i)
				for k, s := range srcs {
					if s == ir.NoReg {
						continue
					}
					static := s - off
					if out, ok := chain[static]; ok && out != ir.NoReg {
						srcs[k] = out + prevOff
					}
				}
			}
		}
	}
	res, err := estimate(m.Compiled(), rep, opt, nil, false)
	if err != nil {
		return 0, 0, err
	}
	return float64(res.Cost) / float64(iters), res.Cost, nil
}

// BranchCovered implements the paper's branch-cost shape test (§2.4.2):
// the branch cost is hidden when the fixed-point unit (which issues the
// loads and the compare feeding the branch) starts sufficiently earlier
// than the other units — approximated as the difference between the
// bottom of the FXU extent and the earliest other unit's extent. It
// returns the estimated uncovered branch cycles, at most full.
func BranchCovered(cb CostBlock, full int) int {
	fxuFirst, ok := cb.First[machine.FXU]
	if !ok {
		return full
	}
	otherFirst := -1
	for k, v := range cb.First {
		if k == machine.FXU || k == machine.BRU {
			continue
		}
		if otherFirst == -1 || v < otherFirst {
			otherFirst = v
		}
	}
	if otherFirst == -1 {
		return full
	}
	lead := otherFirst - fxuFirst
	if lead < 0 {
		lead = 0
	}
	uncovered := full - lead
	if uncovered < 0 {
		return 0
	}
	return uncovered
}
