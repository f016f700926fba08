package lower

import (
	"fmt"
	"strconv"
	"strings"

	"perfpredict/internal/ir"
	"perfpredict/internal/source"
)

// expr lowers an arithmetic expression, returning the register holding
// the value and its type. CSE, invariance hoisting, FMA fusion and the
// small-multiplier specialization happen here.
func (tr *Translator) expr(e source.Expr) (ir.Reg, source.Type, error) {
	key, keyed := tr.exprKey(e)
	if keyed && tr.opt.CSE {
		if r, ok := tr.cse[key]; ok {
			ty, _ := tr.tbl.TypeOf(e)
			return r, ty, nil
		}
		if r, ok := tr.preCSE[key]; ok {
			ty, _ := tr.tbl.TypeOf(e)
			return r, ty, nil
		}
	}
	hoist := tr.opt.CodeMotion && keyed && tr.invariant(e)
	r, ty, err := tr.lowerExpr(e, hoist)
	if err != nil {
		return ir.NoReg, source.TypeUnknown, err
	}
	if keyed && tr.opt.CSE {
		if hoist {
			tr.preCSE[key] = r
		} else {
			tr.setCSE(key, r)
		}
	}
	return r, ty, nil
}

// emit appends to the preheader or the body.
func (tr *Translator) emit(hoist bool, in ir.Instr) {
	if hoist {
		tr.pre.Append(in)
		return
	}
	tr.body.Append(in)
	if in.Op.IsLoad() {
		tr.loadCount++
		if k := tr.opt.RegisterPressure; k > 0 && tr.loadCount%k == 0 {
			// Limited registers force a spill store (§2.2.1).
			spill := fmt.Sprintf("spill%d", tr.loadCount/k)
			tr.body.Append(ir.Instr{Op: ir.OpFStore, Srcs: []ir.Reg{in.Dst}, Addr: spill, Base: spill})
		}
	}
}

func (tr *Translator) lowerExpr(e source.Expr, hoist bool) (ir.Reg, source.Type, error) {
	switch x := e.(type) {
	case *source.NumLit:
		dst := tr.newReg()
		if x.IsReal {
			// FP constants come from the constant pool via a load.
			tr.emit(hoist, ir.Instr{Op: ir.OpFLoad, Dst: dst, Addr: "=" + source.ExprString(x), Base: "=const"})
			return dst, source.TypeReal, nil
		}
		tr.emit(hoist, ir.Instr{Op: ir.OpLoadImm, Dst: dst, Imm: x.Value})
		return dst, source.TypeInteger, nil

	case *source.VarRef:
		sym := tr.tbl.Lookup(x.Name)
		if sym == nil {
			return ir.NoReg, source.TypeUnknown, fmt.Errorf("%s: unknown variable %q", x.Pos, x.Name)
		}
		if sym.IsConst {
			dst := tr.newReg()
			if sym.Type == source.TypeReal {
				tr.emit(hoist, ir.Instr{Op: ir.OpFLoad, Dst: dst, Addr: "=" + x.Name, Base: "=const"})
				return dst, source.TypeReal, nil
			}
			tr.emit(hoist, ir.Instr{Op: ir.OpLoadImm, Dst: dst, Imm: sym.ConstVal})
			return dst, source.TypeInteger, nil
		}
		if tr.loopVars[x.Name] {
			// Loop induction variables live in registers: reading one
			// is free (no producing instruction is emitted).
			return tr.newReg(), source.TypeInteger, nil
		}
		if info, ok := tr.promotable[x.Name]; ok {
			return tr.promotedLoad(x.Name, info, 0), sym.Type, nil
		}
		op := ir.OpFLoad
		if sym.Type == source.TypeInteger {
			op = ir.OpILoad
		}
		dst := tr.newReg()
		tr.emit(hoist, ir.Instr{Op: op, Dst: dst, Addr: x.Name, Base: x.Name})
		return dst, sym.Type, nil

	case *source.ArrayRef:
		addr, addrRegs, err := tr.arrayAddr(x)
		if err != nil {
			return ir.NoReg, source.TypeUnknown, err
		}
		sym := tr.tbl.Lookup(x.Name)
		if info, ok := tr.promotable[addr]; ok {
			return tr.promotedLoad(addr, info, tr.tagRef(x)), sym.Type, nil
		}
		op := ir.OpFLoad
		if sym.Type == source.TypeInteger {
			op = ir.OpILoad
		}
		dst := tr.newReg()
		tr.emit(hoist, ir.Instr{Op: op, Dst: dst, Srcs: addrRegs, Addr: addr, Base: x.Name, RefID: tr.tagRef(x)})
		return dst, sym.Type, nil

	case *source.UnExpr:
		if !x.Neg {
			return ir.NoReg, source.TypeUnknown, fmt.Errorf("%s: .not. in arithmetic context", x.Pos)
		}
		v, ty, err := tr.expr(x.X)
		if err != nil {
			return ir.NoReg, source.TypeUnknown, err
		}
		dst := tr.newReg()
		op := ir.OpFNeg
		if ty == source.TypeInteger {
			op = ir.OpINeg
		}
		tr.emit(hoist, ir.Instr{Op: op, Dst: dst, Srcs: []ir.Reg{v}})
		return dst, ty, nil

	case *source.IntrinsicCall:
		return tr.intrinsic(x, hoist)

	case *source.BinExpr:
		return tr.binExpr(x, hoist)

	default:
		return ir.NoReg, source.TypeUnknown, fmt.Errorf("cannot lower expression %T", e)
	}
}

func (tr *Translator) binExpr(x *source.BinExpr, hoist bool) (ir.Reg, source.Type, error) {
	if x.Kind.IsRelational() || x.Kind.IsLogical() {
		return ir.NoReg, source.TypeUnknown, fmt.Errorf("%s: logical expression in arithmetic context", x.Pos)
	}
	lt, err := tr.tbl.TypeOf(x.L)
	if err != nil {
		return ir.NoReg, source.TypeUnknown, err
	}
	rt, err := tr.tbl.TypeOf(x.R)
	if err != nil {
		return ir.NoReg, source.TypeUnknown, err
	}
	resTy := source.TypeInteger
	if lt == source.TypeReal || rt == source.TypeReal {
		resTy = source.TypeReal
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
			dst := tr.newReg()
			op := ir.OpFMA
			if sub {
				op = ir.OpFMS
			}
			tr.emit(hoist, ir.Instr{Op: op, Dst: dst, Srcs: []ir.Reg{a, b, c}})
			return dst, source.TypeReal, nil
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
			if v, ok := tr.smallOperand(x.L); ok && v >= -128 && v <= 127 {
				op = ir.OpIMulSmall
			} else if v, ok := tr.smallOperand(x.R); ok && v >= -128 && v <= 127 {
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
	dst := tr.newReg()
	tr.emit(hoist, ir.Instr{Op: op, Dst: dst, Srcs: []ir.Reg{l, r}})
	return dst, resTy, nil
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

// smallOperand folds an operand to a constant for the multiplier check.
func (tr *Translator) smallOperand(e source.Expr) (int64, bool) {
	return tr.tbl.IntConst(e)
}

// power lowers x**k: small constant integer exponents expand to
// multiplies; everything else becomes a library call.
func (tr *Translator) power(x *source.BinExpr, hoist bool, resTy source.Type) (ir.Reg, source.Type, error) {
	if k, ok := tr.tbl.IntConst(x.R); ok && k >= 0 && k <= 4 {
		switch k {
		case 0:
			dst := tr.newReg()
			if resTy == source.TypeReal {
				tr.emit(hoist, ir.Instr{Op: ir.OpFLoad, Dst: dst, Addr: "=1.0", Base: "=const"})
			} else {
				tr.emit(hoist, ir.Instr{Op: ir.OpLoadImm, Dst: dst, Imm: 1})
			}
			return dst, resTy, nil
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
	dst := tr.newReg()
	tr.emit(hoist, ir.Instr{Op: ir.OpCall, Dst: dst, Callee: "pow"})
	return dst, source.TypeReal, nil
}

func (tr *Translator) intrinsic(x *source.IntrinsicCall, hoist bool) (ir.Reg, source.Type, error) {
	lowerArgs := func() ([]ir.Reg, []source.Type, error) {
		regs := make([]ir.Reg, len(x.Args))
		tys := make([]source.Type, len(x.Args))
		for i, a := range x.Args {
			r, ty, err := tr.expr(a)
			if err != nil {
				return nil, nil, err
			}
			regs[i], tys[i] = r, ty
		}
		return regs, tys, nil
	}
	regs, tys, err := lowerArgs()
	if err != nil {
		return ir.NoReg, source.TypeUnknown, err
	}
	allReal := func() {
		for i := range regs {
			regs[i] = tr.convert(regs[i], tys[i], source.TypeReal)
		}
	}
	switch x.Name {
	case "sqrt":
		allReal()
		dst := tr.newReg()
		tr.emit(hoist, ir.Instr{Op: ir.OpFSqrt, Dst: dst, Srcs: regs})
		return dst, source.TypeReal, nil
	case "abs":
		dst := tr.newReg()
		if tys[0] == source.TypeInteger {
			tr.emit(hoist, ir.Instr{Op: ir.OpIAbs, Dst: dst, Srcs: regs})
			return dst, source.TypeInteger, nil
		}
		tr.emit(hoist, ir.Instr{Op: ir.OpFAbs, Dst: dst, Srcs: regs})
		return dst, source.TypeReal, nil
	case "min", "max":
		resTy := source.TypeInteger
		for _, ty := range tys {
			if ty == source.TypeReal {
				resTy = source.TypeReal
			}
		}
		op := ir.OpFMin
		if x.Name == "max" {
			op = ir.OpFMax
		}
		if resTy == source.TypeInteger {
			// Integer min/max lower to compare + select ≈ 2 FXU ops.
			cur := regs[0]
			for _, r := range regs[1:] {
				cmp := tr.newReg()
				tr.emit(hoist, ir.Instr{Op: ir.OpICmp, Dst: cmp, Srcs: []ir.Reg{cur, r}})
				dst := tr.newReg()
				tr.emit(hoist, ir.Instr{Op: ir.OpIAdd, Dst: dst, Srcs: []ir.Reg{cmp, r}})
				cur = dst
			}
			return cur, source.TypeInteger, nil
		}
		allReal()
		cur := regs[0]
		for _, r := range regs[1:] {
			dst := tr.newReg()
			tr.emit(hoist, ir.Instr{Op: op, Dst: dst, Srcs: []ir.Reg{cur, r}})
			cur = dst
		}
		return cur, source.TypeReal, nil
	case "mod":
		dst := tr.newReg()
		tr.emit(hoist, ir.Instr{Op: ir.OpIMod, Dst: dst, Srcs: regs})
		return dst, source.TypeInteger, nil
	case "int":
		dst := tr.newReg()
		tr.emit(hoist, ir.Instr{Op: ir.OpFtoI, Dst: dst, Srcs: regs})
		return dst, source.TypeInteger, nil
	case "real", "dble":
		if tys[0] == source.TypeReal {
			return regs[0], source.TypeReal, nil
		}
		dst := tr.newReg()
		tr.emit(hoist, ir.Instr{Op: ir.OpItoF, Dst: dst, Srcs: regs})
		return dst, source.TypeReal, nil
	case "exp", "log", "sin", "cos":
		allReal()
		dst := tr.newReg()
		tr.emit(hoist, ir.Instr{Op: ir.OpCall, Dst: dst, Srcs: regs, Callee: x.Name})
		return dst, source.TypeReal, nil
	default:
		return ir.NoReg, source.TypeUnknown, fmt.Errorf("%s: unknown intrinsic %q", x.Pos, x.Name)
	}
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
	tr.body.Append(ir.Instr{Op: op, Dst: dst, Srcs: []ir.Reg{r}})
	return dst
}

// arrayAddr renders the canonical address string of an array reference
// and emits any explicit subscript arithmetic the addressing hardware
// cannot fold. Affine subscripts of one variable (i, i±c, c·i±d, c)
// are canonicalized — so x((i+1)+1) and x(i+2) agree — and unit-stride
// forms compile to update-form addressing on POWER at no extra cost;
// other subscripts are lowered as integer arithmetic feeding an
// address computation.
func (tr *Translator) arrayAddr(a *source.ArrayRef) (string, []ir.Reg, error) {
	addr, cached := tr.addrCache[a]
	var parts []string
	if !cached {
		parts = make([]string, len(a.Idx))
	}
	var addrRegs []ir.Reg
	for i, ix := range a.Idx {
		str, cheap := tr.subscriptString(ix)
		if !cached {
			parts[i] = str
		}
		if cheap {
			continue
		}
		// Explicit subscript arithmetic + address fold; the resulting
		// register feeds the memory operation so the dependence (and
		// liveness) is visible downstream.
		r, ty, err := tr.expr(ix)
		if err != nil {
			return "", nil, err
		}
		if ty != source.TypeInteger {
			return "", nil, fmt.Errorf("%s: non-integer subscript", a.Pos)
		}
		dst := tr.newReg()
		tr.body.Append(ir.Instr{Op: ir.OpAddr, Dst: dst, Srcs: []ir.Reg{r, ir.NoReg}})
		addrRegs = append(addrRegs, dst)
	}
	if !cached {
		addr = a.Name + "(" + strings.Join(parts, ",") + ")"
		tr.addrCache[a] = addr
	}
	return addr, addrRegs, nil
}

// subscriptString canonicalizes a subscript to "c*v+d" normal form when
// it is affine in a single integer variable, reporting whether the
// addressing hardware folds it for free (constant, or stride ±1).
// Results are memoized per AST node: the normal form depends only on
// the (immutable) node and the symbol table.
func (tr *Translator) subscriptString(e source.Expr) (string, bool) {
	if ent, ok := tr.subCache[e]; ok {
		return ent.s, ent.cheap
	}
	s, cheap := tr.subscriptStringSlow(e)
	tr.subCache[e] = subEntry{s, cheap}
	return s, cheap
}

func (tr *Translator) subscriptStringSlow(e source.Expr) (string, bool) {
	v, c, d, ok := tr.affineSubscript(e)
	if !ok {
		return source.ExprString(e), false
	}
	if v == "" || c == 0 {
		return strconv.FormatInt(d, 10), true
	}
	var buf []byte
	switch c {
	case 1:
		buf = append(buf, v...)
	case -1:
		buf = append(buf, '-')
		buf = append(buf, v...)
	default:
		buf = strconv.AppendInt(buf, c, 10)
		buf = append(buf, '*')
		buf = append(buf, v...)
	}
	if d != 0 {
		if d > 0 {
			buf = append(buf, '+')
		}
		buf = strconv.AppendInt(buf, d, 10)
	}
	return string(buf), c == 1 || c == -1
}

// affineSubscript extracts (v, c, d) with subscript = c·v + d for a
// single integer scalar variable v (v == "" for pure constants).
func (tr *Translator) affineSubscript(e source.Expr) (v string, c, d int64, ok bool) {
	if k, isConst := tr.tbl.IntConst(e); isConst {
		return "", 0, k, true
	}
	switch x := e.(type) {
	case *source.VarRef:
		sym := tr.tbl.Lookup(x.Name)
		if sym == nil || sym.IsArray() || sym.Type != source.TypeInteger {
			return "", 0, 0, false
		}
		return x.Name, 1, 0, true
	case *source.UnExpr:
		if !x.Neg {
			return "", 0, 0, false
		}
		v, c, d, ok = tr.affineSubscript(x.X)
		return v, -c, -d, ok
	case *source.BinExpr:
		switch x.Kind {
		case source.BinAdd, source.BinSub:
			lv, lc, ld, lok := tr.affineSubscript(x.L)
			rv, rc, rd, rok := tr.affineSubscript(x.R)
			if !lok || !rok {
				return "", 0, 0, false
			}
			if x.Kind == source.BinSub {
				rc, rd = -rc, -rd
			}
			switch {
			case lv == "" || lc == 0:
				return rv, rc, ld + rd, true
			case rv == "" || rc == 0:
				return lv, lc, ld + rd, true
			case lv == rv:
				if lc+rc == 0 {
					return "", 0, ld + rd, true
				}
				return lv, lc + rc, ld + rd, true
			default:
				return "", 0, 0, false
			}
		case source.BinMul:
			if k, isConst := tr.tbl.IntConst(x.L); isConst {
				rv, rc, rd, rok := tr.affineSubscript(x.R)
				return rv, k * rc, k * rd, rok
			}
			if k, isConst := tr.tbl.IntConst(x.R); isConst {
				lv, lc, ld, lok := tr.affineSubscript(x.L)
				return lv, k * lc, k * ld, lok
			}
			return "", 0, 0, false
		default:
			return "", 0, 0, false
		}
	default:
		return "", 0, 0, false
	}
}

// exprKey builds the CSE key; the bool result is false for expressions
// that must not be shared (calls have side effects). Keys are memoized
// per AST node; the cache is flushed by reset() when the loop-variable
// set changes, the only translator state a key depends on.
func (tr *Translator) exprKey(e source.Expr) (string, bool) {
	if ent, ok := tr.keyCache[e]; ok {
		return ent.s, ent.ok
	}
	s, ok := tr.exprKeySlow(e)
	tr.keyCache[e] = keyEntry{s, ok}
	return s, ok
}

func (tr *Translator) exprKeySlow(e source.Expr) (string, bool) {
	switch x := e.(type) {
	case *source.NumLit:
		return "#" + source.ExprString(x), true
	case *source.VarRef:
		if tr.loopVars[x.Name] {
			return "iv:" + x.Name, true
		}
		sym := tr.tbl.Lookup(x.Name)
		if sym != nil && sym.IsConst {
			return "#" + x.Name, true
		}
		return loadKey(x.Name), true
	case *source.ArrayRef:
		parts := make([]string, len(x.Idx))
		for i, ix := range x.Idx {
			// Canonical affine form so x((i+1)+1) and x(i+2) share a
			// key (and match the address string the loads carry).
			if _, _, _, ok := tr.affineSubscript(ix); ok {
				parts[i], _ = tr.subscriptString(ix)
				continue
			}
			k, ok := tr.exprKey(ix)
			if !ok {
				return "", false
			}
			parts[i] = k
		}
		return loadKey(x.Name + "(" + strings.Join(parts, ",") + ")"), true
	case *source.UnExpr:
		k, ok := tr.exprKey(x.X)
		if !ok {
			return "", false
		}
		return "neg(" + k + ")", true
	case *source.BinExpr:
		lk, lok := tr.exprKey(x.L)
		rk, rok := tr.exprKey(x.R)
		if !lok || !rok {
			return "", false
		}
		op := x.Kind.String()
		// Canonicalize commutative operands.
		if (x.Kind == source.BinAdd || x.Kind == source.BinMul) && rk < lk {
			lk, rk = rk, lk
		}
		return "(" + lk + op + rk + ")", true
	case *source.IntrinsicCall:
		if x.Name == "exp" || x.Name == "log" || x.Name == "sin" || x.Name == "cos" {
			// Pure, but lowered as calls — still CSE-able.
		}
		parts := make([]string, len(x.Args))
		for i, a := range x.Args {
			k, ok := tr.exprKey(a)
			if !ok {
				return "", false
			}
			parts[i] = k
		}
		return x.Name + "(" + strings.Join(parts, ",") + ")", true
	default:
		return "", false
	}
}

// invariant reports whether e can be hoisted out of the enclosing
// loops: it references no induction variable, no scalar assigned in
// the body, and no array stored in the body.
func (tr *Translator) invariant(e source.Expr) bool {
	switch x := e.(type) {
	case *source.NumLit:
		return true
	case *source.VarRef:
		if tr.loopVars[x.Name] || tr.killedVars[x.Name] {
			return false
		}
		return true
	case *source.ArrayRef:
		if tr.killedArrs[x.Name] {
			return false
		}
		for _, ix := range x.Idx {
			if !tr.invariant(ix) {
				return false
			}
		}
		return true
	case *source.UnExpr:
		return tr.invariant(x.X)
	case *source.BinExpr:
		return tr.invariant(x.L) && tr.invariant(x.R)
	case *source.IntrinsicCall:
		for _, a := range x.Args {
			if !tr.invariant(a) {
				return false
			}
		}
		return true
	default:
		return false
	}
}
