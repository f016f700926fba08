package lower

import (
	"fmt"
	"math"
	"slices"
	"strconv"

	"perfpredict/internal/ir"
	"perfpredict/internal/source"
)

// expr lowers an arithmetic expression, returning the register holding
// the value and its type. CSE, invariance hoisting, FMA fusion and the
// small-multiplier specialization happen here.
func (tr *Translator) expr(e source.Expr) (ir.Reg, source.Type, error) {
	f, err := tr.facts(e)
	if err != nil {
		return ir.NoReg, source.TypeUnknown, err
	}
	if tr.opt.CSE {
		if v := tr.known(f.vn); v.body != ir.NoReg {
			return v.body, f.ty, nil
		} else if v.pre != ir.NoReg {
			return v.pre, f.ty, nil
		}
	}
	r, ty, err := tr.lowerExpr(e, f.ty, f.inv)
	if err != nil {
		return ir.NoReg, source.TypeUnknown, err
	}
	if tr.opt.CSE {
		if v := tr.known(f.vn); f.inv {
			v.pre = r
		} else {
			v.body = r
		}
	}
	return r, ty, nil
}

// op emits in with a fresh destination, which it returns.
func (tr *Translator) op(hoist bool, in ir.Instr, srcs ...ir.Reg) ir.Reg {
	in.Dst = tr.newReg()
	tr.emit(hoist, in, srcs...)
	return in.Dst
}

// emit appends in with sources srcs to the preheader or the body.
func (tr *Translator) emit(hoist bool, in ir.Instr, srcs ...ir.Reg) {
	if hoist {
		tr.out.Pre.Append(in, srcs...)
		return
	}
	tr.out.Body.Append(in, srcs...)
	if in.Op.IsLoad() {
		tr.loadCount++
		if k := tr.opt.RegisterPressure; k > 0 && tr.loadCount%k == 0 {
			// Limited registers force a spill store (§2.2.1).
			spill := tr.sym(fmt.Sprintf("spill%d", tr.loadCount/k))
			tr.out.Body.Append(ir.Instr{Op: ir.OpFStore, Addr: spill, Base: spill}, in.Dst)
		}
	}
}

// lowerExpr emits the operations computing e, whose type is resTy.
func (tr *Translator) lowerExpr(e source.Expr, resTy source.Type, hoist bool) (ir.Reg, source.Type, error) {
	switch x := e.(type) {
	case *source.NumLit:
		if x.IsReal {
			// FP constants come from the constant pool via a load.
			return tr.op(hoist, ir.Instr{Op: ir.OpFLoad, Addr: tr.sym("=" + source.ExprString(x)), Base: tr.sym("=const")}), source.TypeReal, nil
		}
		return tr.op(hoist, ir.Instr{Op: ir.OpLoadImm, Imm: x.Value}), source.TypeInteger, nil

	case *source.VarRef:
		sym := tr.tbl.Lookup(x.Name)
		if sym == nil {
			return ir.NoReg, source.TypeUnknown, fmt.Errorf("%s: unknown variable %q", x.Pos, x.Name)
		}
		if sym.IsConst && sym.Type == source.TypeReal {
			return tr.op(hoist, ir.Instr{Op: ir.OpFLoad, Addr: tr.sym("=" + x.Name), Base: tr.sym("=const")}), source.TypeReal, nil
		} else if sym.IsConst {
			return tr.op(hoist, ir.Instr{Op: ir.OpLoadImm, Imm: sym.ConstVal}), source.TypeInteger, nil
		}
		id := tr.sym(x.Name)
		if tr.syms[id].flags&loopVar != 0 {
			// Loop induction variables live in registers: reading one
			// is free (no producing instruction is emitted).
			return tr.newReg(), source.TypeInteger, nil
		}
		if tr.syms[id].flags&promotable != 0 {
			return tr.promotedLoad(id, 0), sym.Type, nil
		}
		return tr.op(hoist, ir.Instr{Op: loadOp(sym.Type), Addr: id, Base: id}), sym.Type, nil

	case *source.ArrayRef:
		mark := len(tr.regs)
		addr, err := tr.arrayAddr(x)
		if err != nil {
			return ir.NoReg, source.TypeUnknown, err
		}
		addrRegs := tr.regs[mark:]
		tr.regs = tr.regs[:mark]
		sym := tr.tbl.Lookup(x.Name)
		if tr.syms[addr].flags&promotable != 0 {
			return tr.promotedLoad(addr, tr.tagRef(x)), sym.Type, nil
		}
		return tr.op(hoist, ir.Instr{Op: loadOp(sym.Type), Addr: addr, Base: tr.sym(x.Name), RefID: tr.tagRef(x)}, addrRegs...), sym.Type, nil

	case *source.UnExpr:
		if !x.Neg {
			return ir.NoReg, source.TypeUnknown, fmt.Errorf("%s: .not. in arithmetic context", x.Pos)
		}
		v, ty, err := tr.expr(x.X)
		if err != nil {
			return ir.NoReg, source.TypeUnknown, err
		}
		op := ir.OpFNeg
		if ty == source.TypeInteger {
			op = ir.OpINeg
		}
		return tr.op(hoist, ir.Instr{Op: op}, v), ty, nil

	case *source.IntrinsicCall:
		return tr.intrinsic(x, hoist)

	case *source.BinExpr:
		return tr.binExpr(x, resTy, hoist)

	default:
		return ir.NoReg, source.TypeUnknown, fmt.Errorf("cannot lower expression %T", e)
	}
}

func (tr *Translator) binExpr(x *source.BinExpr, resTy source.Type, hoist bool) (ir.Reg, source.Type, error) {
	if x.Kind.IsRelational() || x.Kind.IsLogical() {
		return ir.NoReg, source.TypeUnknown, fmt.Errorf("%s: logical expression in arithmetic context", x.Pos)
	}

	// FMA recognition: a*b + c, c + a*b, a*b − c (machine permitting).
	if tr.opt.FuseFMA && tr.fma && resTy == source.TypeReal &&
		(x.Kind == source.BinAdd || x.Kind == source.BinSub) {
		if mul, addend, sub, ok := fmaOperands(x); ok {
			a, aty, err := tr.expr(mul.L)
			if err != nil {
				return ir.NoReg, source.TypeUnknown, err
			}
			b, bty, err := tr.expr(mul.R)
			if err != nil {
				return ir.NoReg, source.TypeUnknown, err
			}
			c, cty, err := tr.expr(addend)
			if err != nil {
				return ir.NoReg, source.TypeUnknown, err
			}
			a = tr.convert(a, aty, source.TypeReal)
			b = tr.convert(b, bty, source.TypeReal)
			c = tr.convert(c, cty, source.TypeReal)
			op := ir.OpFMA
			if sub {
				op = ir.OpFMS
			}
			return tr.op(hoist, ir.Instr{Op: op}, a, b, c), source.TypeReal, nil
		}
	}

	if x.Kind == source.BinPow {
		return tr.power(x, hoist, resTy)
	}

	l, lt2, err := tr.expr(x.L)
	if err != nil {
		return ir.NoReg, source.TypeUnknown, err
	}
	r, rt2, err := tr.expr(x.R)
	if err != nil {
		return ir.NoReg, source.TypeUnknown, err
	}
	l = tr.convert(l, lt2, resTy)
	r = tr.convert(r, rt2, resTy)

	var op ir.Op
	switch x.Kind {
	case source.BinAdd:
		op = ir.OpFAdd
		if resTy == source.TypeInteger {
			op = ir.OpIAdd
		}
	case source.BinSub:
		op = ir.OpFSub
		if resTy == source.TypeInteger {
			op = ir.OpISub
		}
	case source.BinMul:
		op = ir.OpFMul
		if resTy == source.TypeInteger {
			op = ir.OpIMul
			// Operand-value-dependent specialization (§2.2.1): a
			// multiplier known to be in [−128, 127] takes the short
			// form.
			if v, ok := tr.tbl.IntConst(x.L); ok && v >= -128 && v <= 127 {
				op = ir.OpIMulSmall
			} else if v, ok := tr.tbl.IntConst(x.R); ok && v >= -128 && v <= 127 {
				op = ir.OpIMulSmall
			}
		}
	case source.BinDiv:
		op = ir.OpFDiv
		if resTy == source.TypeInteger {
			op = ir.OpIDiv
		}
	default:
		return ir.NoReg, source.TypeUnknown, fmt.Errorf("unhandled operator %v", x.Kind)
	}
	return tr.op(hoist, ir.Instr{Op: op}, l, r), resTy, nil
}

// fmaOperands matches x = mul ± addend with a multiply on either side
// for adds, or only on the left for subtracts (a*b − c).
func fmaOperands(x *source.BinExpr) (mul *source.BinExpr, addend source.Expr, sub, ok bool) {
	isMul := func(e source.Expr) (*source.BinExpr, bool) {
		b, isb := e.(*source.BinExpr)
		if isb && b.Kind == source.BinMul {
			return b, true
		}
		return nil, false
	}
	if m, isL := isMul(x.L); isL {
		return m, x.R, x.Kind == source.BinSub, true
	}
	if x.Kind == source.BinAdd {
		if m, isR := isMul(x.R); isR {
			return m, x.L, false, true
		}
	}
	return nil, nil, false, false
}

// power lowers x**k: small constant integer exponents expand to
// multiplies; everything else becomes a library call.
func (tr *Translator) power(x *source.BinExpr, hoist bool, resTy source.Type) (ir.Reg, source.Type, error) {
	if k, ok := tr.tbl.IntConst(x.R); ok && k >= 0 && k <= 4 {
		switch k {
		case 0:
			if resTy == source.TypeReal {
				return tr.op(hoist, ir.Instr{Op: ir.OpFLoad, Addr: tr.sym("=1.0"), Base: tr.sym("=const")}), resTy, nil
			}
			return tr.op(hoist, ir.Instr{Op: ir.OpLoadImm, Imm: 1}), resTy, nil
		case 1:
			r, ty, err := tr.expr(x.L)
			if err != nil {
				return ir.NoReg, source.TypeUnknown, err
			}
			return tr.convert(r, ty, resTy), resTy, nil
		default:
			// Expand to a left-associated multiply tree and lower it
			// through expr so CSE shares the intermediate powers
			// (y**2 and y**3 both reuse y·y).
			tree := source.Expr(source.CloneExpr(x.L))
			for i := int64(1); i < k; i++ {
				tree = &source.BinExpr{Kind: source.BinMul, L: tree, R: source.CloneExpr(x.L), Pos: x.Pos}
			}
			r, ty, err := tr.expr(tree)
			if err != nil {
				return ir.NoReg, source.TypeUnknown, err
			}
			return tr.convert(r, ty, resTy), resTy, nil
		}
	}
	// General power: library call.
	if _, _, err := tr.expr(x.L); err != nil {
		return ir.NoReg, source.TypeUnknown, err
	}
	if _, _, err := tr.expr(x.R); err != nil {
		return ir.NoReg, source.TypeUnknown, err
	}
	return tr.op(hoist, ir.Instr{Op: ir.OpCall, Addr: tr.sym("pow")}), source.TypeReal, nil
}

func (tr *Translator) intrinsic(x *source.IntrinsicCall, hoist bool) (ir.Reg, source.Type, error) {
	var rbuf [2]ir.Reg
	var tbuf [2]source.Type
	regs, tys := rbuf[:0], tbuf[:0]
	for _, a := range x.Args {
		r, ty, err := tr.expr(a)
		if err != nil {
			return ir.NoReg, source.TypeUnknown, err
		}
		regs, tys = append(regs, r), append(tys, ty)
	}
	allReal := func() {
		for i := range regs {
			regs[i] = tr.convert(regs[i], tys[i], source.TypeReal)
		}
	}
	switch x.Name {
	case "sqrt":
		allReal()
		return tr.op(hoist, ir.Instr{Op: ir.OpFSqrt}, regs...), source.TypeReal, nil
	case "abs":
		if tys[0] == source.TypeInteger {
			return tr.op(hoist, ir.Instr{Op: ir.OpIAbs}, regs...), source.TypeInteger, nil
		}
		return tr.op(hoist, ir.Instr{Op: ir.OpFAbs}, regs...), source.TypeReal, nil
	case "min", "max":
		if !slices.Contains(tys, source.TypeReal) {
			// Integer min/max lower to compare + select ≈ 2 FXU ops.
			cur := regs[0]
			for _, r := range regs[1:] {
				cmp := tr.op(hoist, ir.Instr{Op: ir.OpICmp}, cur, r)
				cur = tr.op(hoist, ir.Instr{Op: ir.OpIAdd}, cmp, r)
			}
			return cur, source.TypeInteger, nil
		}
		op := ir.OpFMin
		if x.Name == "max" {
			op = ir.OpFMax
		}
		allReal()
		cur := regs[0]
		for _, r := range regs[1:] {
			cur = tr.op(hoist, ir.Instr{Op: op}, cur, r)
		}
		return cur, source.TypeReal, nil
	case "mod":
		return tr.op(hoist, ir.Instr{Op: ir.OpIMod}, regs...), source.TypeInteger, nil
	case "int":
		return tr.op(hoist, ir.Instr{Op: ir.OpFtoI}, regs...), source.TypeInteger, nil
	case "real", "dble":
		if tys[0] == source.TypeReal {
			return regs[0], source.TypeReal, nil
		}
		return tr.op(hoist, ir.Instr{Op: ir.OpItoF}, regs...), source.TypeReal, nil
	case "exp", "log", "sin", "cos":
		allReal()
		return tr.op(hoist, ir.Instr{Op: ir.OpCall, Addr: tr.sym(x.Name)}, regs...), source.TypeReal, nil
	default:
		return ir.NoReg, source.TypeUnknown, fmt.Errorf("%s: unknown intrinsic %q", x.Pos, x.Name)
	}
}

// loadOp and storeOp return the load and the store of a value of
// type ty.
func loadOp(ty source.Type) ir.Op {
	if ty == source.TypeInteger {
		return ir.OpILoad
	}
	return ir.OpFLoad
}

func storeOp(ty source.Type) ir.Op {
	if ty == source.TypeInteger {
		return ir.OpIStore
	}
	return ir.OpFStore
}

// convert inserts int↔real conversions when needed.
func (tr *Translator) convert(r ir.Reg, from, to source.Type) ir.Reg {
	if from == to || from == source.TypeUnknown || to == source.TypeUnknown {
		return r
	}
	dst := tr.newReg()
	op := ir.OpItoF
	if to == source.TypeInteger {
		op = ir.OpFtoI
	}
	tr.out.Body.Append(ir.Instr{Op: op, Dst: dst}, r)
	return dst
}

// arrayAddr returns the address of an array reference and emits any
// explicit subscript arithmetic the addressing hardware cannot fold:
// unit-stride affine forms compile to update-form addressing on POWER
// at no extra cost; other subscripts are lowered as integer arithmetic
// feeding an address computation, whose registers it pushes on tr.regs
// for the memory operation to read (the caller pops them).
func (tr *Translator) arrayAddr(a *source.ArrayRef) (ir.Sym, error) {
	addr, cheap := tr.address(a)
	if cheap {
		return addr, nil
	}
	for _, ix := range a.Idx {
		if tr.subscript(ix).cheap {
			continue
		}
		// Explicit subscript arithmetic + address fold; the resulting
		// register feeds the memory operation so the dependence (and
		// liveness) is visible downstream.
		r, ty, err := tr.expr(ix)
		if err != nil {
			return 0, err
		}
		if ty != source.TypeInteger {
			return 0, fmt.Errorf("%s: non-integer subscript", a.Pos)
		}
		dst := tr.newReg()
		tr.out.Body.Append(ir.Instr{Op: ir.OpAddr, Dst: dst}, r, ir.NoReg)
		tr.regs = append(tr.regs, dst)
	}
	return addr, nil
}

// address interns the canonical address name(sub,…) of an array
// reference, each subscript in its subscript form — so x((i+1)+1) and
// x(i+2) agree — and reports whether the addressing hardware folds
// every subscript for free. Memoized per node.
func (tr *Translator) address(a *source.ArrayRef) (ir.Sym, bool) {
	if ent, ok := tr.addrCache[a]; ok && ent.bound == tr.bound {
		return ent.text, ent.cheap
	}
	var arr [64]byte
	buf := append(append(arr[:0], a.Name...), '(')
	cheap := true
	for i, ix := range a.Idx {
		if i > 0 {
			buf = append(buf, ',')
		}
		sub := tr.subscript(ix)
		buf = append(buf, tr.names.Text(sub.text)...)
		cheap = cheap && sub.cheap
	}
	addr := tr.sym(string(append(buf, ')')))
	tr.addrCache[a] = subEntry{text: addr, cheap: cheap, bound: tr.bound}
	return addr, cheap
}

// subscript canonicalizes a subscript to "c*v+d" normal form when it is
// affine in a single integer variable (its source text otherwise),
// reporting whether the addressing hardware folds it for free
// (constant, or stride ±1). Results are memoized per AST node: the
// normal form depends only on the (immutable) node and the symbol
// table.
func (tr *Translator) subscript(e source.Expr) subEntry {
	if ent, ok := tr.subCache[e]; ok && ent.bound == tr.bound {
		return ent
	}
	var ent subEntry
	switch a, ok := tr.tbl.Affine(e); {
	case !ok || a.Len() > 1:
		ent.text = tr.sym(source.ExprString(e))
	case a.Len() == 0:
		ent = subEntry{text: tr.sym(strconv.FormatInt(a.Const, 10)), cheap: true, affine: true}
	default:
		v, c := a.Term(0).Var, a.Term(0).Coeff
		var arr [32]byte
		buf := arr[:0]
		switch c {
		case 1:
		case -1:
			buf = append(buf, '-')
		default:
			buf = append(strconv.AppendInt(buf, c, 10), '*')
		}
		buf = append(buf, v...)
		if a.Const > 0 {
			buf = append(buf, '+')
		}
		if a.Const != 0 {
			buf = strconv.AppendInt(buf, a.Const, 10)
		}
		ent = subEntry{text: tr.sym(string(buf)), cheap: c == 1 || c == -1, affine: true}
	}
	ent.bound = tr.bound
	tr.subCache[e] = ent
	return ent
}

// facts is what lowering knows about one expression node.
type facts struct {
	// vn is the node's value number: equal numbers denote the same
	// value, so CSE and the preheader map it to a register.
	vn int32
	// ty is the node's type by sem's typing rule.
	ty source.Type
	// inv reports that the value can be hoisted out of the enclosing
	// loops: it reads no induction variable, no scalar assigned in the
	// body and no array stored in the body.
	inv bool
	// deep reports an operand that is not a leaf.
	deep bool
	// epoch is the translator epoch the facts were computed in.
	epoch uint32
}

// vnKey is what a value number is interned from: an operator and two
// operands — value numbers, a name's number (see name) and version, or
// a literal's bits. An array element or an intrinsic chains its
// operands on through vnIndex.
type vnKey struct {
	op   vnOp
	a, b int32
}

type vnOp int32

const (
	vnInt       vnOp = iota // integer literal
	vnReal                  // real literal
	vnParam                 // PARAMETER constant: no version
	vnInduction             // loop induction variable: no version
	vnLoad                  // a scalar, or an array's elements, at a version
	vnSubscript             // a subscript's canonical text
	vnIndex                 // an element or intrinsic with one more operand
	vnIntrinsic             // an intrinsic with no operands yet
	vnNeg                   // unary minus (and .not.)
	vnBinary                // vnBinary + source.BinKind
)

// facts returns e's facts, computing them bottom-up once per epoch. The
// epoch advances at every store, since a store changes the version of
// what it writes, and at every pass start; nothing else changes a
// node's facts within a pass. A leaf, or a node over leaves alone, is cheaper to number again than
// to memoize.
func (tr *Translator) facts(e source.Expr) (facts, error) {
	if leaf(e) {
		return tr.number(e)
	}
	if f, ok := tr.memo[e]; ok && f.epoch == tr.epoch {
		return f, nil
	}
	f, err := tr.number(e)
	if err == nil && f.deep {
		tr.memo[e] = f
	}
	return f, err
}

// leaf reports a literal or a variable.
func leaf(e source.Expr) bool {
	switch e.(type) {
	case *source.NumLit, *source.VarRef:
		return true
	}
	return false
}

// number computes e's facts from its operands' facts.
func (tr *Translator) number(e source.Expr) (facts, error) {
	f := facts{inv: true, epoch: tr.epoch}
	var buf [4]source.Type
	kids := buf[:0]
	operand := func(o source.Expr) (facts, error) {
		k, err := tr.facts(o)
		kids = append(kids, k.ty)
		f.inv = f.inv && k.inv
		f.deep = f.deep || !leaf(o)
		return k, err
	}
	switch x := e.(type) {
	case *source.NumLit:
		op, bits := vnInt, math.Float64bits(x.Value)
		if x.IsReal {
			op = vnReal
		}
		f.vn = tr.intern(vnKey{op: op, a: int32(bits), b: int32(bits >> 32)})
	case *source.VarRef:
		sym, id := tr.tbl.Lookup(x.Name), tr.sym(x.Name)
		flags := tr.syms[id].flags
		switch {
		case flags&loopVar != 0:
			f.vn = tr.intern(vnKey{op: vnInduction, a: int32(id)})
		case sym != nil && sym.IsConst:
			f.vn = tr.intern(vnKey{op: vnParam, a: int32(id)})
		default:
			f.vn = tr.load(id)
		}
		f.inv = flags&(loopVar|killedVar) == 0
	case *source.ArrayRef:
		// An affine subscript contributes its canonical text, so
		// x((i+1)+1) and x(i+2) are one value and match the address
		// a store forwards to.
		id := tr.sym(x.Name)
		f.inv = tr.syms[id].flags&killedArr == 0
		f.vn = tr.load(id)
		for _, ix := range x.Idx {
			k, err := operand(ix)
			if err != nil {
				return facts{}, err
			}
			if sub := tr.subscript(ix); sub.affine {
				k.vn = tr.intern(vnKey{op: vnSubscript, a: int32(sub.text)})
			}
			f.vn = tr.index(f.vn, k.vn)
		}
	case *source.UnExpr:
		k, err := operand(x.X)
		if err != nil {
			return facts{}, err
		}
		f.vn = tr.intern(vnKey{op: vnNeg, a: k.vn})
	case *source.BinExpr:
		l, err := operand(x.L)
		if err != nil {
			return facts{}, err
		}
		r, err := operand(x.R)
		if err != nil {
			return facts{}, err
		}
		a, b := l.vn, r.vn
		if (x.Kind == source.BinAdd || x.Kind == source.BinMul) && b < a {
			a, b = b, a // commutative: one number for both orders
		}
		f.vn = tr.intern(vnKey{op: vnBinary + vnOp(x.Kind), a: a, b: b})
	case *source.IntrinsicCall:
		f.vn = tr.intern(vnKey{op: vnIntrinsic, a: int32(tr.sym(x.Name))})
		for _, arg := range x.Args {
			k, err := operand(arg)
			if err != nil {
				return facts{}, err
			}
			f.vn = tr.index(f.vn, k.vn)
		}
	}
	ty, err := tr.tbl.NodeType(e, kids)
	if err != nil {
		return facts{}, err
	}
	f.ty = ty
	return f, nil
}

// intern returns the value number of k, numbering keys new to the
// pass.
func (tr *Translator) intern(k vnKey) int32 {
	if v, ok := tr.vns[k]; ok && v.pass == tr.pass {
		return v.n
	}
	v := tr.nvn
	tr.nvn++
	tr.vns[k] = vnEntry{n: v, pass: tr.pass}
	return v
}

// nextEpoch stales every memoized facts entry. At wrap-around it empties
// the memo, whose oldest stamps would otherwise match again.
func (tr *Translator) nextEpoch() {
	if tr.epoch++; tr.epoch == 0 {
		clear(tr.memo)
	}
}

// sym interns a text in the translator's table, giving it a state
// slot: value numbering names variables and subscript texts by Sym.
func (tr *Translator) sym(s string) ir.Sym {
	id := tr.names.Intern(s)
	for int(id) >= len(tr.syms) {
		tr.syms = append(tr.syms, symState{})
	}
	return id
}

// load numbers a read of name at its current version.
func (tr *Translator) load(name ir.Sym) int32 {
	return tr.intern(vnKey{op: vnLoad, a: int32(name), b: tr.syms[name].ver})
}

// known returns the registers of value number vn.
func (tr *Translator) known(vn int32) *vnRegs {
	for int(vn) >= len(tr.vals) {
		tr.vals = append(tr.vals, vnRegs{ir.NoReg, ir.NoReg})
	}
	return &tr.vals[vn]
}

// index numbers v with one more operand.
func (tr *Translator) index(v, operand int32) int32 {
	return tr.intern(vnKey{op: vnIndex, a: v, b: operand})
}
