// Package lower implements the instruction translation module of Wang
// (PLDI 1994, §2.2): it converts F-lite statements into basic
// operations (the *operation specialization mapping*, language
// dependent but architecture independent) and, in doing so, imitates
// the low-level optimizations a compiler back-end would perform —
// common-subexpression elimination, code motion of loop invariants,
// dead-store/dead-code elimination, fused multiply-add recognition,
// the small-multiplier integer-multiply specialization, and the
// register-pressure heuristic that forces a store after a number of
// loads. The architecture-dependent atomic operation mapping lives in
// package machine; this package only chooses *which* basic operations
// the generated code would contain.
package lower

import (
	"fmt"
	"slices"

	"perfpredict/internal/ir"
	"perfpredict/internal/machine"
	"perfpredict/internal/sem"
	"perfpredict/internal/source"
)

// Options are the back-end capability flags the cost model is tuned
// with ("flags representing the optimization capabilities of the
// back-end are defined and used for tuning the cost model", §2.2.2).
// Code motion of loop invariants into the one-time (preheader) bin and
// dead-store elimination — the mechanism behind sum-reduction
// recognition — are always performed; the flags here are the
// block-level ablations.
type Options struct {
	// CSE evaluates common subexpressions once.
	CSE bool
	// FuseFMA recognizes a*b±c as fused multiply-add when the machine
	// supports it.
	FuseFMA bool
	// RegisterPressure, when positive, forces one spill store per that
	// many loads (§2.2.1's limited-register heuristic). Zero disables.
	RegisterPressure int
	// ScalarReplace promotes memory locations whose address is
	// invariant in the innermost loop — scalar accumulators and array
	// elements such as c(i,j) in a k-loop — into registers, loading
	// once per loop entry and storing once per exit. This is the
	// paper's sum-reduction recognition: "all but one store instruction
	// can be eliminated by using registers" (§2.2.2).
	ScalarReplace bool
}

// DefaultOptions enables every imitation the IBM xlf back-end performs.
func DefaultOptions() Options {
	return Options{CSE: true, FuseFMA: true, ScalarReplace: true}
}

// Lowered is the result of translating a straight-line statement list.
// A translator returns a view of its scratch: the blocks, Refs and
// Promoted hold until its next pass overwrites them. Pricing reads a
// lowering before lowering again; a caller that keeps one keeps a Clone.
type Lowered struct {
	// Body holds the per-iteration operations.
	Body *ir.Block
	// Pre holds hoisted one-time operations (the second functional bin
	// of §2.2.2, "used to count the one-time and iterative costs
	// separately").
	Pre *ir.Block
	// Refs[id-1] is the source-level array reference of the memory
	// instructions with RefID id, letting the interpreter concretize
	// addresses when replaying the block dynamically.
	Refs []*source.ArrayRef
	// PerEntry holds register-promotion loads executed once per entry
	// of the innermost enclosing loop; Post holds the matching final
	// stores at loop exit (sum-reduction recognition).
	PerEntry *ir.Block
	Post     *ir.Block
	// Promoted describes the promoted locations: the register their
	// per-entry load defines and the register holding the final value.
	Promoted []PromotedVar
	// Names is the translator's table, which renders every Sym above.
	Names *ir.Names

	blocks [4]ir.Block // Body, Pre, PerEntry and Post
	// sharedNames reports that a Clone shares Names, so the
	// translator's Reset must leave the table to it (see Reset).
	sharedNames bool
}

// Clone returns a copy of lw that owns its blocks, Refs and Promoted.
// It shares the name table, to which later passes only add; a
// translator Reset starts a new table rather than empty a shared one.
func (lw *Lowered) Clone() *Lowered {
	if !lw.sharedNames { // a clone's own flag is set, so clones of it write nothing
		lw.sharedNames = true
	}
	c := &Lowered{Refs: slices.Clone(lw.Refs), Promoted: slices.Clone(lw.Promoted), sharedNames: true}
	for i, b := range [4]*ir.Block{lw.Body, lw.Pre, lw.PerEntry, lw.Post} {
		c.blocks[i].Instrs, c.blocks[i].Extra = slices.Clone(b.Instrs), slices.Clone(b.Extra)
	}
	return c.link(lw.Names)
}

// link points lw's blocks at its own headers, rendering through names.
func (lw *Lowered) link(names *ir.Names) *Lowered {
	for i := range lw.blocks {
		lw.blocks[i].Names = names
	}
	lw.Body, lw.Pre, lw.PerEntry, lw.Post, lw.Names = &lw.blocks[0], &lw.blocks[1], &lw.blocks[2], &lw.blocks[3], names
	return lw
}

// PromotedVar is one register-promoted memory location.
type PromotedVar struct {
	Addr ir.Sym
	Base ir.Sym
	// InReg is defined by the PerEntry load (NoReg when the first
	// access is a write and no initial load is needed).
	InReg ir.Reg
	// OutReg holds the final value the Post store writes (NoReg when
	// the location is never written).
	OutReg ir.Reg
}

// Chain maps the register each promoted location's per-entry load
// defines to the register holding its value at the end of Body: the
// serial dependence one iteration hands the next when the block
// repeats. Locations missing either register carry none; nil when no
// location carries one.
func (lw *Lowered) Chain() map[ir.Reg]ir.Reg {
	var chain map[ir.Reg]ir.Reg
	for _, pv := range lw.Promoted {
		if pv.InReg != ir.NoReg && pv.OutReg != ir.NoReg {
			if chain == nil {
				chain = map[ir.Reg]ir.Reg{}
			}
			chain[pv.InReg] = pv.OutReg
		}
	}
	return chain
}

// Translator lowers statements for one program unit on one machine.
type Translator struct {
	tbl *sem.Table
	fma bool // the target's HasFMA: the only machine field lowering reads
	opt Options

	nextReg ir.Reg
	// names interns, for the translator's lifetime, every text lowering
	// meets: variable names, subscript texts, addresses, bases and
	// callees. Every block the translator lowers renders through it.
	names *ir.Names
	// syms holds the pass's state of each Sym of names.
	syms []symState
	// Value numbering (see facts): vns interns one exact number per
	// distinct expression value, numbered from nvn within the pass
	// numbered pass, and memo caches each node's facts for the epoch
	// they were computed in. vals holds the registers of each value
	// number (CSE), in the body and in the preheader. All are per pass,
	// and a pass restarts them without walking the maps: it advances
	// pass and epoch, and an entry stamped with an older one is stale.
	vns   map[vnKey]vnEntry
	nvn   int32
	pass  uint32
	memo  map[source.Expr]facts
	epoch uint32
	vals  []vnRegs

	out Lowered // the pass's result, built in place (see Lowered)

	innerVar string // innermost enclosing loop variable

	// promos holds the register-promoted locations in first-touch
	// order; uses, the array references scanPromotable met.
	promos []promoState
	uses   []promoUse

	loadCount int
	firstReg  ir.Reg   // nextReg when the pass began: its lowest register
	regs      []ir.Reg // a stack of sources under construction (see arrayAddr)
	used      []bool   // deadCodeElim: register - firstReg is read

	// Memoized canonical forms. AST nodes are immutable and the symbol
	// table is fixed until the next Reset, so subscript normal forms and
	// array addresses depend only on the node pointer and survive
	// passes. An entry holds for the binding it is stamped with: Reset
	// advances bound instead of emptying the maps.
	subCache  map[source.Expr]subEntry
	addrCache map[*source.ArrayRef]subEntry
	bound     uint32
}

// subEntry is a subscript's or an array reference's memoized canonical
// text. cheap reports that the addressing hardware folds it (every
// subscript of a reference); affine, that a subscript is affine in at
// most one variable. bound is the binding it was computed in.
type subEntry struct {
	text   ir.Sym
	cheap  bool
	affine bool
	bound  uint32
}

// vnEntry is an interned value number and the pass that numbered it.
type vnEntry struct {
	n    int32
	pass uint32
}

// New creates a translator.
func New(tbl *sem.Table, m *machine.Machine, opt Options) *Translator {
	// A program of n symbols meets about 3n texts and 3n value numbers
	// in a pass; growing the tables from empty costs more than the hint.
	n := tbl.Len()
	tr := &Translator{
		tbl: tbl, fma: m.Compiled().HasFMA(), opt: opt,
		names:     ir.NewNames(3 * n),
		syms:      make([]symState, 0, 3*n),
		vns:       make(map[vnKey]vnEntry, 3*n),
		vals:      make([]vnRegs, 0, 3*n),
		memo:      map[source.Expr]facts{},
		subCache:  map[source.Expr]subEntry{},
		addrCache: map[*source.ArrayRef]subEntry{},
	}
	tr.out.link(tr.names)
	return tr
}

// Reset rebinds the translator to tbl, another program's table, on m,
// as if New had built it with its options: register numbering, the
// name table and the AST-keyed caches restart, and their storage is
// kept.
// The caches restart without walking their maps, whose entries are
// stamped with the binding that computed them, but for an occasional
// walk of a map grown past staleLimit. It invalidates the last pass's view. A
// lowering cloned earlier keeps rendering unchanged: its name table is
// left to it, and the translator starts a new one.
func (tr *Translator) Reset(tbl *sem.Table, m *machine.Machine) {
	tr.tbl, tr.fma = tbl, m.Compiled().HasFMA()
	tr.nextReg = 0
	if tr.out.sharedNames {
		tr.names = ir.NewNames(3 * tbl.Len())
		tr.out.sharedNames = false
	} else {
		tr.names.Reset()
	}
	tr.out.link(tr.names)
	tr.syms = tr.syms[:0]
	if tr.bound++; tr.bound == 0 { // wrapped: the oldest stamps would match again
		clear(tr.subCache)
		clear(tr.addrCache)
	}
	trim(tr.vns)
	trim(tr.memo)
	trim(tr.subCache)
	trim(tr.addrCache)
}

// staleLimit bounds the entries a stamped map carries into a binding.
const staleLimit = 1 << 13

// trim empties m once it holds more than staleLimit entries. Stamped
// entries are never deleted, so a map reused across bindings would
// otherwise keep every key it ever held, and the AST nodes they are;
// emptying it only after that many inserts keeps the walk's cost per
// insert small.
func trim[K comparable, V any](m map[K]V) {
	if len(m) > staleLimit {
		clear(m)
	}
}

// Unbind drops the translator's table and every AST node it keeps, so
// that a translator parked between uses keeps no program alive. It
// empties the AST-keyed caches, which Reset leaves stale in place; the
// next use must be a Reset.
func (tr *Translator) Unbind() {
	tr.tbl = nil
	clear(tr.memo)
	clear(tr.vns)
	clear(tr.subCache)
	clear(tr.addrCache)
	clear(tr.out.Refs[:cap(tr.out.Refs)])
}

// tagRef registers a source array reference and returns its RefID.
func (tr *Translator) tagRef(a *source.ArrayRef) int32 {
	tr.out.Refs = append(tr.out.Refs, a)
	return int32(len(tr.out.Refs))
}

func (tr *Translator) newReg() ir.Reg {
	r := tr.nextReg
	tr.nextReg++
	return r
}

// promoState is the live register of one promoted location.
type promoState struct {
	addr  ir.Sym
	reg   ir.Reg
	inReg ir.Reg
	dirty bool
	refID int32
}

// symState is what the pass knows of one Sym: the version of the name
// for value numbering and its roles. For a promotable address it holds
// the element type and base, where promos holds it, and where
// deadStoreElim saw its latest store (index + 1; 0 for none).
type symState struct {
	ver          int32
	promo, store int32
	base         ir.Sym
	ty           source.Type
	flags        symFlag
}

type symFlag uint8

const (
	loopVar      symFlag = 1 << iota // an enclosing loop's variable
	killedVar                        // a scalar the block assigns
	killedArr                        // an array the block stores
	promotable                       // an address safe to keep in a register
	unpromotable                     // an array some reference keeps in memory
)

// vnRegs holds the registers of one value number, NoReg for none.
type vnRegs struct{ body, pre ir.Reg }

// Body lowers a straight-line statement list (assignments and calls)
// that executes inside the given enclosing loop variables. Nested
// control flow must be split by the caller (package aggregate) before
// lowering.
func (tr *Translator) Body(stmts []source.Stmt, loopVars []string) (*Lowered, error) {
	tr.reset(loopVars)
	tr.killedSets(stmts)
	if tr.opt.ScalarReplace {
		tr.scanPromotable(stmts)
	}

	for _, s := range stmts {
		if err := tr.stmt(s); err != nil {
			return nil, err
		}
	}
	// Flush dirty promoted values to the post block.
	lw := &tr.out
	for _, st := range tr.promos {
		loc := &tr.syms[st.addr]
		pv := PromotedVar{Addr: st.addr, Base: loc.base, InReg: st.inReg, OutReg: ir.NoReg}
		if st.dirty {
			lw.Post.Append(ir.Instr{Op: storeOp(loc.ty), Addr: st.addr, Base: loc.base, RefID: st.refID}, st.reg)
			pv.OutReg = st.reg
		}
		lw.Promoted = append(lw.Promoted, pv)
	}
	tr.deadStoreElim()
	tr.deadCodeElim(lw.Pre, lw.PerEntry, lw.Body, lw.Post)
	return lw, nil
}

// reset prepares translator state for one lowering pass.
func (tr *Translator) reset(loopVars []string) {
	lw := &tr.out
	for i := range lw.blocks {
		lw.blocks[i].Instrs = lw.blocks[i].Instrs[:0]
		lw.blocks[i].Extra = lw.blocks[i].Extra[:0]
	}
	lw.Refs, lw.Promoted = lw.Refs[:0], lw.Promoted[:0]
	if tr.pass++; tr.pass == 0 { // wrapped: see Reset
		clear(tr.vns)
	}
	tr.nvn = 0
	tr.nextEpoch()
	clear(tr.syms)
	tr.vals = tr.vals[:0]
	tr.loadCount = 0
	tr.firstReg = tr.nextReg
	tr.regs = tr.regs[:0]
	tr.innerVar = ""
	for _, v := range loopVars {
		tr.mark(v, loopVar)
	}
	if len(loopVars) > 0 {
		tr.innerVar = loopVars[len(loopVars)-1]
	}
	tr.promos = tr.promos[:0]
}

// scanPromotable fills tr.promotable with the memory locations safe to
// keep in registers for the duration of the innermost loop: every
// reference to the location's array (or scalar) must use an address
// that does not involve the innermost loop variable or any scalar
// assigned in the block, with cheap (analyzable) subscripts; blocks
// containing calls promote nothing.
func (tr *Translator) scanPromotable(stmts []source.Stmt) {
	tr.uses = tr.uses[:0]
	if tr.innerVar == "" || !tr.scanStmts(stmts) {
		return
	}
	for _, u := range tr.uses {
		if sym := tr.tbl.Lookup(u.name); sym != nil && tr.syms[u.base].flags&unpromotable == 0 {
			tr.promote(u.addr, sym.Type, u.base)
		}
	}
	// Scalars assigned in the block (accumulators) are promotable too,
	// unless they appear in a promoted array's subscripts (they don't:
	// subscriptBlocked rejects killed scalars).
	for id := range tr.syms {
		if tr.syms[id].flags&(killedVar|loopVar) != killedVar {
			continue
		}
		sym := tr.tbl.Lookup(tr.names.Text(ir.Sym(id)))
		if sym == nil || sym.IsArray() || sym.IsConst {
			continue
		}
		tr.promote(ir.Sym(id), sym.Type, ir.Sym(id))
	}
}

// promote marks addr promotable, an element of base of type ty.
func (tr *Translator) promote(addr ir.Sym, ty source.Type, base ir.Sym) {
	st := &tr.syms[addr]
	st.flags, st.ty, st.base = st.flags|promotable, ty, base
}

// promoUse is an array reference scanPromotable met.
type promoUse struct {
	name       string
	base, addr ir.Sym
}

// scanStmts records the array references of stmts in tr.uses, marking
// an array unpromotable at a reference that blocks promotion. It
// reports false at a call.
func (tr *Translator) scanStmts(stmts []source.Stmt) bool {
	for _, s := range stmts {
		switch x := s.(type) {
		case *source.Assign:
			tr.scanExpr(x.LHS)
			tr.scanExpr(x.RHS)
		case *source.CallStmt:
			return false
		case *source.IfStmt:
			tr.scanExpr(x.Cond)
			if !tr.scanStmts(x.Then) || !tr.scanStmts(x.Else) {
				return false
			}
		}
	}
	return true
}

func (tr *Translator) scanExpr(e source.Expr) {
	switch x := e.(type) {
	case *source.ArrayRef:
		addr, ok := tr.address(x)
		for _, ix := range x.Idx {
			ok = ok && !tr.subscriptBlocked(ix)
			tr.scanExpr(ix)
		}
		base := tr.sym(x.Name)
		if !ok {
			tr.syms[base].flags |= unpromotable
		}
		tr.uses = append(tr.uses, promoUse{name: x.Name, base: base, addr: addr})
	case *source.BinExpr:
		tr.scanExpr(x.L)
		tr.scanExpr(x.R)
	case *source.UnExpr:
		tr.scanExpr(x.X)
	case *source.IntrinsicCall:
		for _, a := range x.Args {
			tr.scanExpr(a)
		}
	}
}

// subscriptBlocked reports subscripts that reference the innermost loop
// variable or a scalar assigned in the block, or hold an indirect
// subscript or an intrinsic.
func (tr *Translator) subscriptBlocked(e source.Expr) bool {
	switch x := e.(type) {
	case *source.VarRef:
		id := tr.sym(x.Name)
		return x.Name == tr.innerVar || tr.syms[id].flags&killedVar != 0
	case *source.ArrayRef, *source.IntrinsicCall:
		return true
	case *source.BinExpr:
		return tr.subscriptBlocked(x.L) || tr.subscriptBlocked(x.R)
	case *source.UnExpr:
		return tr.subscriptBlocked(x.X)
	}
	return false
}

// promotedLoad returns the register of a promoted location, emitting
// the per-entry load on first touch.
func (tr *Translator) promotedLoad(addr ir.Sym, refID int32) ir.Reg {
	loc := &tr.syms[addr]
	if loc.promo > 0 {
		return tr.promos[loc.promo-1].reg
	}
	dst := tr.newReg()
	tr.out.PerEntry.Append(ir.Instr{Op: loadOp(loc.ty), Dst: dst, Addr: addr, Base: loc.base, RefID: refID})
	tr.promos = append(tr.promos, promoState{addr: addr, reg: dst, inReg: dst, refID: refID})
	loc.promo = int32(len(tr.promos))
	return dst
}

// promotedStore records a new value for a promoted location.
func (tr *Translator) promotedStore(addr ir.Sym, val ir.Reg, refID int32) {
	loc := &tr.syms[addr]
	if loc.promo == 0 {
		tr.promos = append(tr.promos, promoState{addr: addr, inReg: ir.NoReg, refID: refID})
		loc.promo = int32(len(tr.promos))
	}
	st := &tr.promos[loc.promo-1]
	if st.refID == 0 {
		st.refID = refID
	}
	st.reg = val
	st.dirty = true
}

// Condition lowers a logical expression into compare + branch
// operations, returning the block (used by the aggregation module for
// IF statements and loop back-branches).
func (tr *Translator) Condition(cond source.Expr, loopVars []string) (*Lowered, error) {
	tr.reset(loopVars)
	if err := tr.lowerCondBranch(cond); err != nil {
		return nil, err
	}
	tr.deadCodeElim(tr.out.Pre, tr.out.Body)
	return &tr.out, nil
}

// ExprOnly lowers an expression for its evaluation cost (used by the
// aggregation module to price loop-bound computations): the value is
// kept alive by a synthetic sink store, which is then dropped so only
// the evaluation operations remain.
func (tr *Translator) ExprOnly(e source.Expr, loopVars []string) (*Lowered, error) {
	tr.reset(loopVars)
	val, _, err := tr.expr(e)
	if err != nil {
		return nil, err
	}
	sink := tr.sym("$sink")
	tr.out.Body.Append(ir.Instr{Op: ir.OpIStore, Addr: sink, Base: sink}, val)
	tr.deadCodeElim(tr.out.Pre, tr.out.Body)
	// Drop the sink store: only the evaluation operations remain.
	if b := tr.out.Body; len(b.Instrs) > 0 && b.Instrs[len(b.Instrs)-1].Addr == sink {
		b.Instrs = b.Instrs[:len(b.Instrs)-1]
	}
	return &tr.out, nil
}

// LoopOverhead builds the per-iteration loop control operations. The
// back-end compiles counted DO loops to POWER's branch-on-count (bc
// with CTR decrement) — no compare, and the branch does not depend on
// the induction increment, which exists only to feed addressing. This
// is the "branch optimization" of §2.2.2 that the cost model imitates.
// Every call returns the same block, which callers must not modify.
func LoopOverhead() *ir.Block { return loopOverhead }

var loopOverhead = func() *ir.Block {
	b := &ir.Block{}
	b.Append(ir.Instr{Op: ir.OpIAdd, Dst: 0}, 1, 2)
	b.Append(ir.Instr{Op: ir.OpBranch}, ir.NoReg)
	return b
}()

// killedSets marks the scalars stmts assign killedVar and the arrays
// they store killedArr.
func (tr *Translator) killedSets(stmts []source.Stmt) {
	for _, s := range stmts {
		switch x := s.(type) {
		case *source.Assign:
			switch lhs := x.LHS.(type) {
			case *source.VarRef:
				tr.mark(lhs.Name, killedVar)
			case *source.ArrayRef:
				tr.mark(lhs.Name, killedArr)
			}
		case *source.CallStmt:
			// Calls may write any argument.
			for _, a := range x.Args {
				if vr, ok := a.(*source.VarRef); ok {
					tr.mark(vr.Name, killedVar|killedArr)
				}
			}
		case *source.IfStmt:
			tr.killedSets(x.Then)
			tr.killedSets(x.Else)
		case *source.DoLoop:
			tr.mark(x.Var, killedVar)
			tr.killedSets(x.Body)
		}
	}
}

// mark gives name the roles f.
func (tr *Translator) mark(name string, f symFlag) {
	id := tr.sym(name)
	tr.syms[id].flags |= f
}

func (tr *Translator) stmt(s source.Stmt) error {
	switch x := s.(type) {
	case *source.Assign:
		return tr.assign(x)
	case *source.CallStmt:
		return tr.call(x)
	case *source.ContinueStmt, *source.ReturnStmt:
		return nil
	default:
		return fmt.Errorf("%s: statement %T is not straight-line; split before lowering", s.StmtPos(), s)
	}
}

func (tr *Translator) assign(a *source.Assign) error {
	val, valTy, err := tr.expr(a.RHS)
	if err != nil {
		return err
	}
	switch lhs := a.LHS.(type) {
	case *source.VarRef:
		sym := tr.tbl.Lookup(lhs.Name)
		lty := source.TypeReal
		if sym != nil {
			lty = sym.Type
		}
		val = tr.convert(val, valTy, lty)
		id := tr.sym(lhs.Name)
		tr.store(lty, id, id, []ir.Reg{val}, nil)
	case *source.ArrayRef:
		sym := tr.tbl.Lookup(lhs.Name)
		lty := sym.Type
		mark := len(tr.regs)
		tr.regs = append(tr.regs, tr.convert(val, valTy, lty))
		addr, err := tr.arrayAddr(lhs)
		if err != nil {
			return err
		}
		tr.store(lty, addr, tr.sym(lhs.Name), tr.regs[mark:], lhs)
		tr.regs = tr.regs[:mark]
	default:
		return fmt.Errorf("%s: bad assignment target", a.Pos)
	}
	return nil
}

// store emits the store of srcs[0] to the scalar base (elem nil) or to
// the array element elem at addr, the rest of srcs its address
// registers, then bumps base's version: every value that read the
// location stops matching, and a later load of the same address
// forwards the value.
func (tr *Translator) store(ty source.Type, addr, base ir.Sym, srcs []ir.Reg, elem *source.ArrayRef) {
	val := srcs[0]
	var refID int32
	if elem != nil {
		refID = tr.tagRef(elem)
	}
	if tr.syms[addr].flags&promotable != 0 {
		tr.promotedStore(addr, val, refID)
	} else {
		tr.out.Body.Append(ir.Instr{Op: storeOp(ty), Addr: addr, Base: base, RefID: refID}, srcs...)
	}
	tr.syms[base].ver++
	tr.nextEpoch()
	// Store-to-load forwarding. An element's number is built from the
	// canonical text of its subscripts, as an affine load's is; a
	// non-affine subscript's text matches no load's number.
	fwd := tr.load(base)
	if elem != nil {
		for _, ix := range elem.Idx {
			fwd = tr.index(fwd, tr.intern(vnKey{op: vnSubscript, a: int32(tr.subscript(ix).text)}))
		}
	}
	tr.known(fwd).body = val
}

func (tr *Translator) call(c *source.CallStmt) error {
	// Arguments: scalars are passed by reference (no op cost here);
	// expression arguments are evaluated and stored to temporaries.
	for _, a := range c.Args {
		switch a.(type) {
		case *source.VarRef, *source.ArrayRef:
			continue
		}
		val, ty, err := tr.expr(a)
		if err != nil {
			return err
		}
		tmp := tr.sym(fmt.Sprintf("argtmp%d", len(tr.out.Body.Instrs)))
		tr.store(ty, tmp, tmp, []ir.Reg{val}, nil)
	}
	tr.out.Body.Append(ir.Instr{Op: ir.OpCall, Dst: tr.newReg(), Addr: tr.sym(c.Name)})
	// A call clobbers all memory-derived values.
	for i := range tr.vals {
		tr.vals[i].body = ir.NoReg
	}
	return nil
}

// lowerCondBranch lowers a logical expression to compares, CR logic and
// a branch.
func (tr *Translator) lowerCondBranch(cond source.Expr) error {
	cr, err := tr.lowerCond(cond)
	if err != nil {
		return err
	}
	tr.out.Body.Append(ir.Instr{Op: ir.OpBranch}, cr)
	return nil
}

// lowerCond produces a condition-register value for a logical
// expression.
func (tr *Translator) lowerCond(cond source.Expr) (ir.Reg, error) {
	switch x := cond.(type) {
	case *source.BinExpr:
		if x.Kind.IsRelational() {
			l, lt, err := tr.expr(x.L)
			if err != nil {
				return ir.NoReg, err
			}
			r, rt, err := tr.expr(x.R)
			if err != nil {
				return ir.NoReg, err
			}
			op := ir.OpICmp
			if lt == source.TypeReal || rt == source.TypeReal {
				op = ir.OpFCmp
				l = tr.convert(l, lt, source.TypeReal)
				r = tr.convert(r, rt, source.TypeReal)
			}
			dst := tr.newReg()
			tr.out.Body.Append(ir.Instr{Op: op, Dst: dst}, l, r)
			return dst, nil
		}
		if x.Kind.IsLogical() {
			l, err := tr.lowerCond(x.L)
			if err != nil {
				return ir.NoReg, err
			}
			r, err := tr.lowerCond(x.R)
			if err != nil {
				return ir.NoReg, err
			}
			// CR logic: combine with an integer op on the CR unit —
			// modelled as an integer op (crand/cror occupy the CRU; we
			// approximate with an FXU-class op of 1 cycle).
			dst := tr.newReg()
			tr.out.Body.Append(ir.Instr{Op: ir.OpIAdd, Dst: dst}, l, r)
			return dst, nil
		}
		return ir.NoReg, fmt.Errorf("%s: not a condition: %s", x.Pos, source.ExprString(x))
	case *source.UnExpr:
		if !x.Neg {
			return tr.lowerCond(x.X)
		}
		return ir.NoReg, fmt.Errorf("%s: arithmetic expression used as condition", x.Pos)
	default:
		return ir.NoReg, fmt.Errorf("condition %T is not logical", cond)
	}
}
