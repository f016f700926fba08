package tetris

import (
	"slices"

	"perfpredict/internal/ir"
	"perfpredict/internal/machine"
)

// CostBlock is the geometric summary of a priced basic block (Figure
// 8): the area between the first and last occupied time slots, with
// per-unit-kind extents. Shapes are cheap to combine, which is how the
// paper aggregates adjacent blocks without re-running placement
// (Figure 9).
//
// The per-kind figures sit in one slice indexed by the target's dense
// kind index (machine.CostTable.Kinds) and are read through First,
// Last and Busy.
type CostBlock struct {
	// Height is the block's total cost in cycles.
	Height int
	// kinds names the kind of each row; it is the compiled cost
	// table's own slice, never written (see add).
	kinds []machine.UnitKind
	rows  []kindRow
}

// kindRow is one unit kind's extent in a cost block: the first and
// last occupied slot relative to the block start (first < 0 when the
// kind is unused) and its occupied (noncoverable) slot count.
type kindRow struct{ first, last, busy int }

// NewCostBlock returns a cost block of the given height in which no
// kind of kinds (a target's kinds in dense kind-index order) is used
// yet; AddPipe fills it in.
func NewCostBlock(height int, kinds []machine.UnitKind) CostBlock {
	cb := CostBlock{Height: height, kinds: kinds, rows: make([]kindRow, len(kinds))}
	for i := range cb.rows {
		cb.rows[i].first = -1
	}
	return cb
}

// AddPipe folds one pipe of kind k into the block: its first and last
// occupied slot relative to the block start and its occupied slot
// count. A kind the block does not list is appended.
func (cb *CostBlock) AddPipe(k machine.UnitKind, first, last, busy int) {
	i := cb.index(k)
	if i < 0 {
		i = len(cb.kinds)
		cb.kinds = append(slices.Clip(cb.kinds), k) // never write the shared slice
		cb.rows = append(cb.rows, kindRow{first: -1})
	}
	cb.rows[i].add(first, last, busy)
}

// add widens the row to cover [first, last] and adds busy slots.
func (r *kindRow) add(first, last, busy int) {
	if r.first < 0 {
		r.first, r.last = first, last
	} else {
		r.first, r.last = min(r.first, first), max(r.last, last)
	}
	r.busy += busy
}

// index returns k's row, or -1 when the block does not list k.
func (cb CostBlock) index(k machine.UnitKind) int {
	return slices.Index(cb.kinds, k)
}

// row returns k's row and whether k is used.
func (cb CostBlock) row(k machine.UnitKind) (kindRow, bool) {
	if i := cb.index(k); i >= 0 && cb.rows[i].first >= 0 {
		return cb.rows[i], true
	}
	return kindRow{}, false
}

// First returns the first slot kind k occupies, relative to the block
// start, and whether k is used at all.
func (cb CostBlock) First(k machine.UnitKind) (int, bool) {
	r, ok := cb.row(k)
	return r.first, ok
}

// Last returns the last slot kind k occupies, relative to the block
// start, and whether k is used at all.
func (cb CostBlock) Last(k machine.UnitKind) (int, bool) {
	r, ok := cb.row(k)
	return r.last, ok
}

// Busy counts the occupied (noncoverable) slots of kind k.
func (cb CostBlock) Busy(k machine.UnitKind) int {
	r, _ := cb.row(k)
	return r.busy
}

// Utilization returns Busy/Height for the given kind (0 when unused or
// the block is empty).
func (cb CostBlock) Utilization(k machine.UnitKind) float64 {
	if cb.Height == 0 {
		return 0
	}
	return float64(cb.Busy(k)) / float64(cb.Height)
}

// CriticalUnit returns the unit kind with the highest utilization —
// the bin whose occupied/empty ratio the compiler inspects to decide
// whether reordering or unrolling is beneficial (§2.4.2).
func (cb CostBlock) CriticalUnit() (machine.UnitKind, float64) {
	var best machine.UnitKind
	bestU := -1.0
	for i, r := range cb.rows {
		if r.first < 0 {
			continue
		}
		k := cb.kinds[i]
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
	for i, br := range b.rows {
		if br.first < 0 {
			continue
		}
		if aLast, ok := a.Last(b.kinds[i]); ok {
			if need := aLast + 1 - br.first; need > offset {
				offset = need
			}
		}
	}
	height := a.Height
	if h := offset + b.Height; h > height {
		height = h
	}
	combined = CostBlock{Height: height, kinds: a.kinds, rows: slices.Clone(a.rows)}
	for i, br := range b.rows {
		if br.first >= 0 {
			combined.AddPipe(b.kinds[i], offset+br.first, offset+br.last, br.busy)
		}
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

// SteadyState prices iters independent copies of b and returns the
// amortized per-iteration cost, in pooled scratch.
func SteadyState(m *machine.Machine, b *ir.Block, opt Options, iters int) (perIter float64, total int, err error) {
	sc := scratchPool.Get().(*Scratch)
	defer scratchPool.Put(sc)
	return sc.SteadyStateChained(m, b, opt, iters, nil)
}

// SteadyStateChained prices iters copies of b with register-carried
// recurrences preserved: chain maps each copy's loop-entry register
// (e.g. a promoted accumulator) to the register holding its value at
// the copy's end, so copy k's read depends on copy k−1's result — the
// serial chain of a sum reduction kept in a register. The copies are
// built by Replicate's routine into sc's replicated block and priced
// cost only; a warm sc allocates nothing.
func (sc *Scratch) SteadyStateChained(m *machine.Machine, b *ir.Block, opt Options, iters int, chain map[ir.Reg]ir.Reg) (perIter float64, total int, err error) {
	if iters <= 0 {
		iters = 1
	}
	rep := &sc.rep
	rep.Names = b.Names
	defer func() { rep.Names = nil }() // the scratch must not keep the table alive
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
	res, err := sc.estimate(m.Compiled(), rep, opt, nil, false)
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
	fxuFirst, ok := cb.First(machine.FXU)
	if !ok {
		return full
	}
	otherFirst := -1
	for i, r := range cb.rows {
		if k := cb.kinds[i]; r.first < 0 || k == machine.FXU || k == machine.BRU {
			continue
		}
		if otherFirst == -1 || r.first < otherFirst {
			otherFirst = r.first
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
