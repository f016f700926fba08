package lower

import (
	"fmt"
	"math"
	"strconv"
	"strings"

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
		if r, ok := tr.cse[f.vn]; ok {
			return r, f.ty, nil
		}
		if r, ok := tr.preCSE[f.vn]; ok {
			return r, f.ty, nil
		}
	}
	r, ty, err := tr.lowerExpr(e, f.ty, f.inv)
	if err != nil {
		return ir.NoReg, source.TypeUnknown, err
	}
	if tr.opt.CSE {
		if f.inv {
			tr.preCSE[f.vn] = r
		} else {
			tr.cse[f.vn] = r
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

// lowerExpr emits the operations computing e, whose type is resTy.
func (tr *Translator) lowerExpr(e source.Expr, resTy source.Type, hoist bool) (ir.Reg, source.Type, error) {
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

// arrayAddr returns the address string of an array reference and
// emits any explicit subscript arithmetic the addressing hardware
// cannot fold: unit-stride affine forms compile to update-form
// addressing on POWER at no extra cost; other subscripts are lowered as
// integer arithmetic feeding an address computation.
func (tr *Translator) arrayAddr(a *source.ArrayRef) (string, []ir.Reg, error) {
	addr, cheap := tr.address(a)
	if cheap {
		return addr, nil, nil
	}
	var addrRegs []ir.Reg
	for _, ix := range a.Idx {
		if tr.subscript(ix).cheap {
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
	return addr, addrRegs, nil
}

// address renders the canonical address string name(sub,…) of an array
// reference, each subscript in its subscript form — so x((i+1)+1) and
// x(i+2) agree — and reports whether the addressing hardware folds
// every subscript for free. Memoized per node.
func (tr *Translator) address(a *source.ArrayRef) (string, bool) {
	if ent, ok := tr.addrCache[a]; ok {
		return ent.s, ent.cheap
	}
	parts := make([]string, len(a.Idx))
	cheap := true
	for i, ix := range a.Idx {
		sub := tr.subscript(ix)
		parts[i] = sub.s
		cheap = cheap && sub.cheap
	}
	addr := a.Name + "(" + strings.Join(parts, ",") + ")"
	tr.addrCache[a] = subEntry{s: addr, cheap: cheap}
	return addr, cheap
}

// subscript canonicalizes a subscript to "c*v+d" normal form when it is
// affine in a single integer variable (its source text otherwise),
// reporting whether the addressing hardware folds it for free
// (constant, or stride ±1). Results are memoized per AST node: the
// normal form depends only on the (immutable) node and the symbol
// table.
func (tr *Translator) subscript(e source.Expr) subEntry {
	if ent, ok := tr.subCache[e]; ok {
		return ent
	}
	ent := tr.subscriptSlow(e)
	tr.subCache[e] = ent
	return ent
}

func (tr *Translator) subscriptSlow(e source.Expr) subEntry {
	a, ok := tr.tbl.Affine(e)
	if !ok || a.Len() > 1 {
		return subEntry{s: source.ExprString(e)}
	}
	d := a.Const
	if a.Len() == 0 {
		return subEntry{s: strconv.FormatInt(d, 10), cheap: true, affine: true}
	}
	v, c := a.Term(0).Var, a.Term(0).Coeff
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
	return subEntry{s: string(buf), cheap: c == 1 || c == -1, affine: true}
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
// what it writes; nothing else changes a node's facts within a pass.
// Leaves are cheaper to number again than to memoize.
func (tr *Translator) facts(e source.Expr) (facts, error) {
	switch e.(type) {
	case *source.NumLit, *source.VarRef:
		return tr.number(e)
	}
	if f, ok := tr.memo[e]; ok && f.epoch == tr.epoch {
		return f, nil
	}
	f, err := tr.number(e)
	if err == nil {
		tr.memo[e] = f
	}
	return f, err
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
		sym := tr.tbl.Lookup(x.Name)
		switch {
		case tr.loopVars[x.Name]:
			f.vn = tr.intern(vnKey{op: vnInduction, a: tr.name(x.Name)})
		case sym != nil && sym.IsConst:
			f.vn = tr.intern(vnKey{op: vnParam, a: tr.name(x.Name)})
		default:
			f.vn = tr.load(x.Name)
		}
		f.inv = !tr.loopVars[x.Name] && !tr.killedVars[x.Name]
	case *source.ArrayRef:
		// An affine subscript contributes its canonical text, so
		// x((i+1)+1) and x(i+2) are one value and match the address
		// a store forwards to.
		f.inv = !tr.killedArrs[x.Name]
		f.vn = tr.load(x.Name)
		for _, ix := range x.Idx {
			k, err := operand(ix)
			if err != nil {
				return facts{}, err
			}
			if sub := tr.subscript(ix); sub.affine {
				k.vn = tr.intern(vnKey{op: vnSubscript, a: tr.name(sub.s)})
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
		f.vn = tr.intern(vnKey{op: vnIntrinsic, a: tr.name(x.Name)})
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

// intern returns the value number of k, numbering new keys.
func (tr *Translator) intern(k vnKey) int32 {
	if v, ok := tr.vns[k]; ok {
		return v
	}
	v := int32(len(tr.vns))
	tr.vns[k] = v
	return v
}

// name numbers a name or a subscript's text for the translator's
// lifetime, giving it a version slot.
func (tr *Translator) name(s string) int32 {
	id, ok := tr.names[s]
	if !ok {
		id = int32(len(tr.names))
		tr.names[s] = id
		tr.ver = append(tr.ver, 0)
	}
	return id
}

// load numbers a read of name at its current version.
func (tr *Translator) load(name string) int32 {
	id := tr.name(name)
	return tr.intern(vnKey{op: vnLoad, a: id, b: tr.ver[id]})
}

// index numbers v with one more operand.
func (tr *Translator) index(v, operand int32) int32 {
	return tr.intern(vnKey{op: vnIndex, a: v, b: operand})
}
