package lower

import "perfpredict/internal/ir"

// deadStoreElim removes body stores whose location is overwritten later
// in the block with no intervening load of the same address or call.
// This is the back-end behaviour that makes sum reductions cheap: in an
// unrolled `s = s + …; s = s + …` chain only the final store survives,
// the intermediate values staying in registers ("all but one store
// instruction can be eliminated by using registers", §2.2.2). Loads
// that forwarded from a removed store were already redirected to the
// stored register during translation, so removal is safe.
func (tr *Translator) deadStoreElim() {
	b := tr.out.Body
	// A store at or before the latest call is no longer pending.
	call, dead := int32(0), false
	for i := range b.Instrs {
		in := &b.Instrs[i]
		switch last := &tr.syms[in.Addr].store; {
		case in.Op.IsStore():
			if *last > call {
				b.Instrs[*last-1].Op, dead = ir.OpInvalid, true
			}
			*last = int32(i) + 1
		case in.Op.IsLoad():
			// A load keeps the previous store to its address alive.
			*last = 0
		case in.Op == ir.OpCall:
			// Calls may observe all memory.
			call = int32(i) + 1
		}
	}
	if dead {
		b.Instrs = deleteInstrs(b.Instrs, func(in *ir.Instr) bool { return in.Op == ir.OpInvalid })
	}
}

// deadCodeElim removes instructions whose destination register is
// never read — in any of the given blocks — and which have no side
// effects (not stores, branches, or calls). The blocks form one
// extended region (preheader + body), so a preheader value consumed by
// the body stays alive. Iterates to a fixed point so chains of dead
// producers die.
func (tr *Translator) deadCodeElim(blocks ...*ir.Block) {
	// Every register of the pass is in [firstReg, nextReg).
	n := int(tr.nextReg - tr.firstReg)
	if cap(tr.used) < n {
		tr.used = make([]bool, n)
	}
	used := tr.used[:n]
	for {
		clear(used)
		for _, b := range blocks {
			for i := range b.Instrs {
				for _, s := range b.Srcs(i) {
					if s >= tr.firstReg {
						used[s-tr.firstReg] = true
					}
				}
			}
		}
		removed := false
		for _, b := range blocks {
			b.Instrs = deleteInstrs(b.Instrs, func(in *ir.Instr) bool {
				dead := in.Op.HasDst() && in.Dst != ir.NoReg && !used[in.Dst-tr.firstReg] &&
					!in.Op.IsMem() && !in.Op.IsBranch() && in.Op != ir.OpCall
				removed = removed || dead
				return dead
			})
		}
		if !removed {
			return
		}
	}
}

// deleteInstrs removes the instructions del reports, in place.
func deleteInstrs(instrs []ir.Instr, del func(*ir.Instr) bool) []ir.Instr {
	out := instrs[:0]
	for i := range instrs {
		if !del(&instrs[i]) {
			out = append(out, instrs[i])
		}
	}
	return out
}
