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
type Lowered struct {
	// Body holds the per-iteration operations.
	Body *ir.Block
	// Pre holds hoisted one-time operations (the second functional bin
	// of §2.2.2, "used to count the one-time and iterative costs
	// separately").
	Pre *ir.Block
	// Refs maps memory-instruction RefIDs back to the source-level
	// array reference, letting the interpreter concretize addresses
	// when replaying the block dynamically.
	Refs map[int32]*source.ArrayRef
	// PerEntry holds register-promotion loads executed once per entry
	// of the innermost enclosing loop; Post holds the matching final
	// stores at loop exit (sum-reduction recognition).
	PerEntry *ir.Block
	Post     *ir.Block
	// Promoted describes the promoted locations: the register their
	// per-entry load defines and the register holding the final value.
	Promoted []PromotedVar
}

// PromotedVar is one register-promoted memory location.
type PromotedVar struct {
	Addr string
	Base string
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
	// Value numbering (see facts): vns interns one exact number per
	// distinct expression value, ver holds the version of each name
	// numbered in names, and memo caches each node's facts for the
	// current epoch. cse and preCSE map value numbers to the register
	// holding the value, in the body and in the preheader. All but
	// names is per lowering pass.
	names  map[string]int32
	vns    map[vnKey]int32
	ver    []int32
	memo   map[source.Expr]facts
	epoch  uint32
	cse    map[int32]ir.Reg
	preCSE map[int32]ir.Reg

	body     *ir.Block
	pre      *ir.Block
	perEntry *ir.Block
	post     *ir.Block

	loopVars   map[string]bool
	innerVar   string          // innermost enclosing loop variable
	killedVars map[string]bool // scalars assigned in the body
	killedArrs map[string]bool // arrays stored in the body

	// promo tracks register-promoted locations: addr -> state.
	promo      map[string]*promoState
	promoOrder []string
	promotable map[string]promoInfo

	loadCount int

	nextRefID int32
	refs      map[int32]*source.ArrayRef

	// Memoized canonical strings. AST nodes are immutable and the
	// symbol table is fixed for the translator's lifetime, so subscript
	// normal forms and array address strings depend only on the node
	// pointer and survive resets.
	subCache  map[source.Expr]subEntry
	addrCache map[*source.ArrayRef]subEntry
}

// subEntry is a memoized rendering: a subscript's canonical text, or an
// array reference's address string. cheap reports that the addressing
// hardware folds it (every subscript, for an address); affine, that a
// subscript is affine in at most one variable.
type subEntry struct {
	s      string
	cheap  bool
	affine bool
}

// New creates a translator.
func New(tbl *sem.Table, m *machine.Machine, opt Options) *Translator {
	return &Translator{
		tbl: tbl, fma: m.Compiled().HasFMA(), opt: opt,
		names:     map[string]int32{},
		vns:       map[vnKey]int32{},
		memo:      map[source.Expr]facts{},
		cse:       map[int32]ir.Reg{},
		preCSE:    map[int32]ir.Reg{},
		subCache:  map[source.Expr]subEntry{},
		addrCache: map[*source.ArrayRef]subEntry{},
	}
}

// tagRef registers a source array reference and returns its RefID.
func (tr *Translator) tagRef(a *source.ArrayRef) int32 {
	if tr.refs == nil {
		tr.refs = map[int32]*source.ArrayRef{}
	}
	tr.nextRefID++
	tr.refs[tr.nextRefID] = a
	return tr.nextRefID
}

func (tr *Translator) newReg() ir.Reg {
	r := tr.nextReg
	tr.nextReg++
	return r
}

// promoState is the live register of one promoted location.
type promoState struct {
	reg   ir.Reg
	inReg ir.Reg
	dirty bool
	ty    source.Type
	base  string
	refID int32
}

// promoInfo marks an address as promotable with its element type.
type promoInfo struct {
	ty   source.Type
	base string
}

// Body lowers a straight-line statement list (assignments and calls)
// that executes inside the given enclosing loop variables. Nested
// control flow must be split by the caller (package aggregate) before
// lowering.
func (tr *Translator) Body(stmts []source.Stmt, loopVars []string) (*Lowered, error) {
	tr.reset(loopVars)
	tr.killedVars, tr.killedArrs = killedSets(stmts)
	if tr.opt.ScalarReplace {
		tr.promotable = tr.scanPromotable(stmts)
	}

	for _, s := range stmts {
		if err := tr.stmt(s); err != nil {
			return nil, err
		}
	}
	lw := &Lowered{Body: tr.body, Pre: tr.pre, PerEntry: tr.perEntry, Post: tr.post, Refs: tr.refs}
	// Flush dirty promoted values to the post block.
	for _, addr := range tr.promoOrder {
		st := tr.promo[addr]
		pv := PromotedVar{Addr: addr, Base: st.base, InReg: st.inReg, OutReg: ir.NoReg}
		if st.dirty {
			op := ir.OpFStore
			if st.ty == source.TypeInteger {
				op = ir.OpIStore
			}
			tr.post.Append(ir.Instr{Op: op, Srcs: []ir.Reg{st.reg}, Addr: addr, Base: st.base, RefID: st.refID})
			pv.OutReg = st.reg
		}
		lw.Promoted = append(lw.Promoted, pv)
	}
	deadStoreElim(tr.body)
	deadCodeElim(tr.pre, tr.perEntry, tr.body, tr.post)
	return lw, nil
}

// reset prepares translator state for one lowering pass.
func (tr *Translator) reset(loopVars []string) {
	tr.body = &ir.Block{}
	tr.pre = &ir.Block{}
	tr.perEntry = &ir.Block{}
	tr.post = &ir.Block{}
	clear(tr.vns)
	clear(tr.ver)
	clear(tr.memo)
	clear(tr.cse)
	clear(tr.preCSE)
	tr.loadCount = 0
	tr.loopVars = map[string]bool{}
	tr.innerVar = ""
	for _, v := range loopVars {
		tr.loopVars[v] = true
	}
	if len(loopVars) > 0 {
		tr.innerVar = loopVars[len(loopVars)-1]
	}
	tr.promo = map[string]*promoState{}
	tr.promoOrder = nil
	tr.promotable = nil
	tr.killedVars, tr.killedArrs = map[string]bool{}, map[string]bool{}
	// Each Lowered owns its reference map: a memoized lowering must not
	// see the translator's later passes.
	tr.refs = nil
}

// scanPromotable finds memory locations safe to keep in registers for
// the duration of the innermost loop: every reference to the location's
// array (or scalar) must use an address that does not involve the
// innermost loop variable or any scalar assigned in the block, with
// cheap (analyzable) subscripts; blocks containing calls promote
// nothing.
func (tr *Translator) scanPromotable(stmts []source.Stmt) map[string]promoInfo {
	if tr.innerVar == "" {
		return nil
	}
	type refUse struct {
		addr string
		ok   bool
		ty   source.Type
	}
	byBase := map[string][]refUse{}
	scalarUse := map[string]bool{} // scalars read or written
	hasCall := false
	var walkExpr func(e source.Expr)
	walkExpr = func(e source.Expr) {
		switch x := e.(type) {
		case *source.ArrayRef:
			use := refUse{}
			sym := tr.tbl.Lookup(x.Name)
			if sym != nil {
				use.ty = sym.Type
			}
			addr, good := tr.address(x)
			for _, ix := range x.Idx {
				if tr.subscriptBlocked(ix) {
					good = false
				}
				walkExpr(ix)
			}
			use.ok = good
			if good {
				use.addr = addr
			}
			byBase[x.Name] = append(byBase[x.Name], use)
		case *source.VarRef:
			scalarUse[x.Name] = true
		case *source.BinExpr:
			walkExpr(x.L)
			walkExpr(x.R)
		case *source.UnExpr:
			walkExpr(x.X)
		case *source.IntrinsicCall:
			for _, a := range x.Args {
				walkExpr(a)
			}
		}
	}
	var walk func(list []source.Stmt)
	walk = func(list []source.Stmt) {
		for _, s := range list {
			switch x := s.(type) {
			case *source.Assign:
				walkExpr(x.LHS)
				walkExpr(x.RHS)
			case *source.CallStmt:
				hasCall = true
			case *source.IfStmt:
				walkExpr(x.Cond)
				walk(x.Then)
				walk(x.Else)
			}
		}
	}
	walk(stmts)
	if hasCall {
		return nil
	}
	out := map[string]promoInfo{}
	for base, uses := range byBase {
		sym := tr.tbl.Lookup(base)
		if sym == nil {
			continue
		}
		allOK := true
		for _, u := range uses {
			if !u.ok {
				allOK = false
				break
			}
		}
		if !allOK {
			continue
		}
		for _, u := range uses {
			out[u.addr] = promoInfo{ty: sym.Type, base: base}
		}
	}
	// Scalars assigned in the block (accumulators) are promotable too,
	// unless they appear in a promoted array's subscripts (they don't:
	// subscriptBlocked rejects killed scalars).
	for name := range tr.killedVars {
		if tr.loopVars[name] {
			continue
		}
		sym := tr.tbl.Lookup(name)
		if sym == nil || sym.IsArray() || sym.IsConst {
			continue
		}
		if !scalarUse[name] {
			continue
		}
		out[name] = promoInfo{ty: sym.Type, base: name}
	}
	return out
}

// subscriptBlocked reports subscripts that reference the innermost loop
// variable or a scalar assigned in the block.
func (tr *Translator) subscriptBlocked(e source.Expr) bool {
	blocked := false
	var walk func(x source.Expr)
	walk = func(x source.Expr) {
		switch y := x.(type) {
		case *source.VarRef:
			if y.Name == tr.innerVar || tr.killedVars[y.Name] {
				blocked = true
			}
		case *source.ArrayRef:
			blocked = true // indirect subscripts block promotion
		case *source.BinExpr:
			walk(y.L)
			walk(y.R)
		case *source.UnExpr:
			walk(y.X)
		case *source.IntrinsicCall:
			blocked = true
		}
	}
	walk(e)
	return blocked
}

// promotedLoad returns the register of a promoted location, emitting
// the per-entry load on first touch.
func (tr *Translator) promotedLoad(addr string, info promoInfo, refID int32) ir.Reg {
	if st, ok := tr.promo[addr]; ok {
		return st.reg
	}
	op := ir.OpFLoad
	if info.ty == source.TypeInteger {
		op = ir.OpILoad
	}
	dst := tr.newReg()
	tr.perEntry.Append(ir.Instr{Op: op, Dst: dst, Addr: addr, Base: info.base, RefID: refID})
	tr.promo[addr] = &promoState{reg: dst, inReg: dst, ty: info.ty, base: info.base, refID: refID}
	tr.promoOrder = append(tr.promoOrder, addr)
	return dst
}

// promotedStore records a new value for a promoted location.
func (tr *Translator) promotedStore(addr string, info promoInfo, val ir.Reg, refID int32) {
	st, ok := tr.promo[addr]
	if !ok {
		st = &promoState{inReg: ir.NoReg, ty: info.ty, base: info.base, refID: refID}
		tr.promo[addr] = st
		tr.promoOrder = append(tr.promoOrder, addr)
	}
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
	deadCodeElim(tr.pre, tr.body)
	return &Lowered{Body: tr.body, Pre: tr.pre, PerEntry: tr.perEntry, Post: tr.post, Refs: tr.refs}, nil
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
	tr.body.Append(ir.Instr{Op: ir.OpIStore, Srcs: []ir.Reg{val}, Addr: "$sink", Base: "$sink"})
	deadCodeElim(tr.pre, tr.body)
	// Drop the sink store: only the evaluation operations remain.
	if n := len(tr.body.Instrs); n > 0 && tr.body.Instrs[n-1].Addr == "$sink" {
		tr.body.Instrs = tr.body.Instrs[:n-1]
	}
	return &Lowered{Body: tr.body, Pre: tr.pre, PerEntry: tr.perEntry, Post: tr.post, Refs: tr.refs}, nil
}

// LoopOverhead builds the per-iteration loop control operations. The
// back-end compiles counted DO loops to POWER's branch-on-count (bc
// with CTR decrement) — no compare, and the branch does not depend on
// the induction increment, which exists only to feed addressing. This
// is the "branch optimization" of §2.2.2 that the cost model imitates.
func LoopOverhead() *ir.Block {
	b := &ir.Block{Label: "loopctl"}
	b.Append(ir.Instr{Op: ir.OpIAdd, Dst: 0, Srcs: []ir.Reg{1, 2}})
	b.Append(ir.Instr{Op: ir.OpBranch, Srcs: []ir.Reg{ir.NoReg}})
	return b
}

// killedSets collects scalars assigned and arrays stored by stmts.
func killedSets(stmts []source.Stmt) (vars, arrs map[string]bool) {
	vars, arrs = map[string]bool{}, map[string]bool{}
	var walk func(s source.Stmt)
	walk = func(s source.Stmt) {
		switch x := s.(type) {
		case *source.Assign:
			switch lhs := x.LHS.(type) {
			case *source.VarRef:
				vars[lhs.Name] = true
			case *source.ArrayRef:
				arrs[lhs.Name] = true
			}
		case *source.CallStmt:
			// Calls may write any argument.
			for _, a := range x.Args {
				if vr, ok := a.(*source.VarRef); ok {
					vars[vr.Name] = true
					arrs[vr.Name] = true
				}
			}
		case *source.IfStmt:
			for _, t := range x.Then {
				walk(t)
			}
			for _, e := range x.Else {
				walk(e)
			}
		case *source.DoLoop:
			vars[x.Var] = true
			for _, t := range x.Body {
				walk(t)
			}
		}
	}
	for _, s := range stmts {
		walk(s)
	}
	return vars, arrs
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
		tr.store(lty, val, lhs.Name, lhs.Name, nil, nil)
	case *source.ArrayRef:
		sym := tr.tbl.Lookup(lhs.Name)
		lty := sym.Type
		val = tr.convert(val, valTy, lty)
		addr, addrRegs, err := tr.arrayAddr(lhs)
		if err != nil {
			return err
		}
		tr.store(lty, val, addr, lhs.Name, addrRegs, lhs)
	default:
		return fmt.Errorf("%s: bad assignment target", a.Pos)
	}
	return nil
}

// store emits the store of val to the scalar base (elem nil) or to the
// array element elem at addr, then bumps base's version: every value
// that read the location stops matching, and a later load of the same
// address forwards val.
func (tr *Translator) store(ty source.Type, val ir.Reg, addr, base string, addrRegs []ir.Reg, elem *source.ArrayRef) {
	var refID int32
	if elem != nil {
		refID = tr.tagRef(elem)
	}
	if info, ok := tr.promotable[addr]; ok {
		tr.promotedStore(addr, info, val, refID)
	} else {
		op := ir.OpFStore
		if ty == source.TypeInteger {
			op = ir.OpIStore
		}
		srcs := append([]ir.Reg{val}, addrRegs...)
		tr.body.Append(ir.Instr{Op: op, Srcs: srcs, Addr: addr, Base: base, RefID: refID})
	}
	tr.ver[tr.name(base)]++
	tr.epoch++
	// Store-to-load forwarding. An element's number is built from the
	// canonical text of its subscripts, as an affine load's is; a
	// non-affine subscript's text matches no load's number.
	fwd := tr.load(base)
	if elem != nil {
		for _, ix := range elem.Idx {
			fwd = tr.index(fwd, tr.intern(vnKey{op: vnSubscript, a: tr.name(tr.subscript(ix).s)}))
		}
	}
	tr.cse[fwd] = val
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
		tmp := fmt.Sprintf("argtmp%d", len(tr.body.Instrs))
		tr.store(ty, val, tmp, tmp, nil, nil)
	}
	tr.body.Append(ir.Instr{Op: ir.OpCall, Dst: tr.newReg(), Callee: c.Name})
	// A call clobbers all memory-derived values.
	clear(tr.cse)
	return nil
}

// lowerCondBranch lowers a logical expression to compares, CR logic and
// a branch.
func (tr *Translator) lowerCondBranch(cond source.Expr) error {
	cr, err := tr.lowerCond(cond)
	if err != nil {
		return err
	}
	tr.body.Append(ir.Instr{Op: ir.OpBranch, Srcs: []ir.Reg{cr}})
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
			tr.body.Append(ir.Instr{Op: op, Dst: dst, Srcs: []ir.Reg{l, r}})
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
			tr.body.Append(ir.Instr{Op: ir.OpIAdd, Dst: dst, Srcs: []ir.Reg{l, r}})
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
