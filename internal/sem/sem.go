// Package sem implements F-lite semantic analysis: symbol tables with
// Fortran implicit typing, array-rank and type checking, PARAMETER
// constant resolution, and constant folding — the "program analysis
// module" whose results feed the instruction-translation module.
package sem

import (
	"fmt"
	"math"
	"slices"

	"perfpredict/internal/source"
)

// Symbol describes one declared (or implicitly typed) entity.
type Symbol struct {
	Name string
	Type source.Type
	// Dims holds the declared dimension extents; nil for scalars. Each
	// extent is the resolved constant size, or -1 when symbolic (e.g. a
	// dummy-argument bound).
	Dims []int64
	// DimExprs are the original extent expressions.
	DimExprs []source.Expr
	// IsConst marks PARAMETER constants, with their folded value.
	IsConst  bool
	ConstVal float64
	// IsDummy marks subroutine arguments.
	IsDummy bool
	// Dist is the HPF distribution directive, if any.
	Dist *source.Distribute
}

// IsArray reports whether the symbol is an array.
func (s *Symbol) IsArray() bool { return len(s.DimExprs) > 0 }

// Rank returns the number of dimensions (0 for scalars).
func (s *Symbol) Rank() int { return len(s.DimExprs) }

// Table is the symbol table of one program unit.
type Table struct {
	Program *source.Program
	syms    map[string]*Symbol
	order   []string
}

// Lookup returns the symbol for name, or nil.
func (t *Table) Lookup(name string) *Symbol { return t.syms[name] }

// Symbols returns all symbols in declaration order.
func (t *Table) Symbols() []*Symbol {
	out := make([]*Symbol, 0, len(t.order))
	for _, n := range t.order {
		out = append(out, t.syms[n])
	}
	return out
}

// Arrays returns array symbols in declaration order.
func (t *Table) Arrays() []*Symbol {
	var out []*Symbol
	for _, s := range t.Symbols() {
		if s.IsArray() {
			out = append(out, s)
		}
	}
	return out
}

func (t *Table) add(s *Symbol) {
	if _, exists := t.syms[s.Name]; !exists {
		t.order = append(t.order, s.Name)
	}
	t.syms[s.Name] = s
}

// implicitType returns the Fortran implicit type for an undeclared
// name: i–n → integer, otherwise real.
func implicitType(name string) source.Type {
	if name == "" {
		return source.TypeReal
	}
	c := name[0]
	if c >= 'i' && c <= 'n' {
		return source.TypeInteger
	}
	return source.TypeReal
}

// Analyze builds and checks the symbol table for a program unit.
func Analyze(p *source.Program) (*Table, error) {
	t := &Table{Program: p, syms: map[string]*Symbol{}}

	// Pass 1: explicit declarations.
	for _, d := range p.Decls {
		for _, n := range d.Names {
			if existing := t.Lookup(n.Name); existing != nil {
				return nil, fmt.Errorf("%s: %q declared twice", d.Pos, n.Name)
			}
			t.add(&Symbol{Name: n.Name, Type: d.Type, DimExprs: n.Dims})
		}
	}
	// Pass 2: PARAMETER constants (may reference earlier constants).
	for _, c := range p.Consts {
		sym := t.Lookup(c.Name)
		if sym == nil {
			sym = &Symbol{Name: c.Name, Type: implicitType(c.Name)}
			t.add(sym)
		}
		if sym.IsArray() {
			return nil, fmt.Errorf("%s: parameter %q is an array", c.Pos, c.Name)
		}
		val, ok := t.FoldConst(c.Value)
		if !ok {
			return nil, fmt.Errorf("%s: parameter %q is not a compile-time constant", c.Pos, c.Name)
		}
		sym.IsConst = true
		sym.ConstVal = val
	}
	// Pass 3: dummy arguments.
	for _, name := range p.Params {
		sym := t.Lookup(name)
		if sym == nil {
			sym = &Symbol{Name: name, Type: implicitType(name)}
			t.add(sym)
		}
		sym.IsDummy = true
	}
	// Pass 4: resolve array extents.
	for _, s := range t.Symbols() {
		for _, dim := range s.DimExprs {
			if v, ok := t.FoldConst(dim); ok {
				iv := int64(v)
				if iv <= 0 {
					return nil, fmt.Errorf("array %q has non-positive extent %d", s.Name, iv)
				}
				s.Dims = append(s.Dims, iv)
			} else {
				s.Dims = append(s.Dims, -1)
			}
		}
	}
	// Pass 5: attach distributions.
	for _, d := range p.Dists {
		sym := t.Lookup(d.Array)
		if sym == nil || !sym.IsArray() {
			return nil, fmt.Errorf("%s: distribute names unknown array %q", d.Pos, d.Array)
		}
		if len(d.Pattern) != sym.Rank() {
			return nil, fmt.Errorf("%s: distribute rank %d != array rank %d", d.Pos, len(d.Pattern), sym.Rank())
		}
		sym.Dist = d
	}
	// Pass 6: walk the body, implicit-typing unseen names and checking
	// uses.
	if err := t.checkStmts(p.Body); err != nil {
		return nil, err
	}
	return t, nil
}

// resolve returns the symbol for a use, creating an implicitly typed
// scalar if absent.
func (t *Table) resolve(name string) *Symbol {
	if s := t.Lookup(name); s != nil {
		return s
	}
	s := &Symbol{Name: name, Type: implicitType(name)}
	t.add(s)
	return s
}

func (t *Table) checkStmts(stmts []source.Stmt) error {
	for _, s := range stmts {
		if err := t.checkStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (t *Table) checkStmt(s source.Stmt) error {
	switch x := s.(type) {
	case *source.Assign:
		switch lhs := x.LHS.(type) {
		case *source.VarRef:
			sym := t.resolve(lhs.Name)
			if sym.IsConst {
				return fmt.Errorf("%s: assignment to parameter %q", x.Pos, lhs.Name)
			}
			if sym.IsArray() {
				return fmt.Errorf("%s: array %q assigned without subscripts", x.Pos, lhs.Name)
			}
		case *source.ArrayRef:
			if _, err := t.TypeOf(lhs); err != nil {
				return err
			}
		default:
			return fmt.Errorf("%s: invalid assignment target", x.Pos)
		}
		if _, err := t.TypeOf(x.RHS); err != nil {
			return err
		}
		return nil
	case *source.DoLoop:
		sym := t.resolve(x.Var)
		if sym.IsArray() {
			return fmt.Errorf("%s: loop variable %q is an array", x.Pos, x.Var)
		}
		if sym.Type != source.TypeInteger {
			return fmt.Errorf("%s: loop variable %q is not integer", x.Pos, x.Var)
		}
		for _, e := range []source.Expr{x.Lb, x.Ub, x.Step} {
			if e == nil {
				continue
			}
			ty, err := t.TypeOf(e)
			if err != nil {
				return err
			}
			if ty != source.TypeInteger {
				return fmt.Errorf("%s: loop bound %s is not integer", x.Pos, source.ExprString(e))
			}
		}
		return t.checkStmts(x.Body)
	case *source.IfStmt:
		if _, err := t.TypeOf(x.Cond); err != nil {
			return err
		}
		if !isLogicalExpr(x.Cond) {
			return fmt.Errorf("%s: if condition %s is not a logical expression", x.Pos, source.ExprString(x.Cond))
		}
		if err := t.checkStmts(x.Then); err != nil {
			return err
		}
		return t.checkStmts(x.Else)
	case *source.CallStmt:
		for _, a := range x.Args {
			// Whole-array arguments are allowed.
			if vr, ok := a.(*source.VarRef); ok {
				t.resolve(vr.Name)
				continue
			}
			if _, err := t.TypeOf(a); err != nil {
				return err
			}
		}
		return nil
	case *source.ContinueStmt, *source.ReturnStmt:
		return nil
	default:
		return fmt.Errorf("unknown statement %T", s)
	}
}

// isLogicalExpr reports whether e is a relational/logical expression.
func isLogicalExpr(e source.Expr) bool {
	switch x := e.(type) {
	case *source.BinExpr:
		return x.Kind.IsRelational() || x.Kind.IsLogical()
	case *source.UnExpr:
		return !x.Neg && isLogicalExpr(x.X)
	default:
		return false
	}
}

// TypeOf infers the numeric type of an expression, resolving implicit
// types along the way: it applies NodeType bottom-up.
func (t *Table) TypeOf(e source.Expr) (source.Type, error) {
	var operands []source.Expr
	switch x := e.(type) {
	case *source.UnExpr:
		operands = []source.Expr{x.X}
	case *source.BinExpr:
		operands = []source.Expr{x.L, x.R}
	case *source.ArrayRef:
		operands = x.Idx
	case *source.IntrinsicCall:
		operands = x.Args
	}
	var buf [4]source.Type
	kids := buf[:0]
	for _, o := range operands {
		ty, err := t.TypeOf(o)
		if err != nil {
			return source.TypeUnknown, err
		}
		kids = append(kids, ty)
	}
	return t.NodeType(e, kids)
}

// NodeType is the typing rule of one expression node, given the types
// of its operands in source order: the operand of a unary expression,
// the two of a binary one, an array reference's subscripts or an
// intrinsic's arguments. It resolves the names it reads, checks array
// references, and reports relational and logical expressions as
// TypeInteger (F-lite treats logicals as integers for cost purposes).
func (t *Table) NodeType(e source.Expr, kids []source.Type) (source.Type, error) {
	switch x := e.(type) {
	case *source.NumLit:
		if x.IsReal {
			return source.TypeReal, nil
		}
		return source.TypeInteger, nil
	case *source.VarRef:
		sym := t.resolve(x.Name)
		if sym.IsArray() {
			return source.TypeUnknown, fmt.Errorf("%s: array %q used as scalar", x.Pos, x.Name)
		}
		return sym.Type, nil
	case *source.ArrayRef:
		sym := t.resolve(x.Name)
		if !sym.IsArray() {
			return source.TypeUnknown, fmt.Errorf("%s: %q subscripted but not an array", x.Pos, x.Name)
		}
		if len(x.Idx) != sym.Rank() {
			return source.TypeUnknown, fmt.Errorf("%s: %q has rank %d, subscripted with %d indices", x.Pos, x.Name, sym.Rank(), len(x.Idx))
		}
		for i, ty := range kids {
			if ty != source.TypeInteger {
				return source.TypeUnknown, fmt.Errorf("%s: non-integer subscript %s", x.Pos, source.ExprString(x.Idx[i]))
			}
		}
		return sym.Type, nil
	case *source.UnExpr:
		return kids[0], nil
	case *source.IntrinsicCall:
		var argTy source.Type = source.TypeInteger
		if slices.Contains(kids, source.TypeReal) {
			argTy = source.TypeReal
		}
		switch x.Name {
		case "int":
			return source.TypeInteger, nil
		case "real", "dble", "sqrt", "exp", "log", "sin", "cos":
			return source.TypeReal, nil
		case "mod", "abs", "min", "max":
			return argTy, nil
		default:
			return source.TypeUnknown, fmt.Errorf("%s: unknown intrinsic %q", x.Pos, x.Name)
		}
	case *source.BinExpr:
		if !x.Kind.IsRelational() && !x.Kind.IsLogical() && slices.Contains(kids, source.TypeReal) {
			return source.TypeReal, nil
		}
		return source.TypeInteger, nil
	default:
		return source.TypeUnknown, fmt.Errorf("unknown expression %T", e)
	}
}

// FoldConst evaluates e when it only involves literals and PARAMETER
// constants. Integer division truncates, and an integer power with a
// negative exponent folds as Fortran defines it: 2**(-1) is 0,
// (-1)**(-3) is -1, and 0**(-1) does not fold.
func (t *Table) FoldConst(e source.Expr) (float64, bool) {
	c := t.fold(e)
	return c.v, c.ok
}

// constNode is one node's folded value (ok false when it does not
// fold) and, when it folds, its type as TypeOf infers it (typed false
// when TypeOf fails).
type constNode struct {
	v         float64
	ok, typed bool
	ty        source.Type
}

// fold folds e and types it in one bottom-up recursion, typing each
// node by NodeType from its operands' types, so that the division and
// power rules, which read their operands' types, cost O(1) per node
// instead of a TypeOf walk of each operand subtree.
func (t *Table) fold(e source.Expr) constNode {
	var kidBuf [4]source.Type
	kids := kidBuf[:0]
	var n constNode
	switch x := e.(type) {
	case *source.NumLit:
		n = constNode{v: x.Value, ok: true}
	case *source.VarRef:
		s := t.Lookup(x.Name)
		if s == nil || !s.IsConst {
			return constNode{}
		}
		n = constNode{v: s.ConstVal, ok: true}
	case *source.UnExpr:
		if !x.Neg {
			return constNode{}
		}
		n = t.fold(x.X)
		n.v = -n.v
		return n
	case *source.IntrinsicCall:
		var argBuf [4]float64
		args := argBuf[:0]
		typed := true
		for _, a := range x.Args {
			c := t.fold(a)
			if !c.ok {
				return constNode{}
			}
			args = append(args, c.v)
			kids = append(kids, c.ty)
			typed = typed && c.typed
		}
		v, ok := foldIntrinsic(x.Name, args)
		if !ok {
			return constNode{}
		}
		n = constNode{v: v, ok: true}
		if !typed {
			return n
		}
	case *source.BinExpr:
		l := t.fold(x.L)
		if !l.ok {
			return constNode{}
		}
		r := t.fold(x.R)
		if !r.ok {
			return constNode{}
		}
		ints := l.typed && r.typed && l.ty == source.TypeInteger && r.ty == source.TypeInteger
		v, ok := foldBinary(x.Kind, l.v, r.v, ints)
		if !ok {
			return constNode{}
		}
		n = constNode{v: v, ok: true}
		if !l.typed || !r.typed {
			return n
		}
		kids = append(kids, l.ty, r.ty)
	default:
		return constNode{}
	}
	ty, err := t.NodeType(e, kids)
	n.ty, n.typed = ty, err == nil
	return n
}

// foldIntrinsic applies a foldable intrinsic to constant arguments.
func foldIntrinsic(name string, args []float64) (float64, bool) {
	switch name {
	case "abs":
		return math.Abs(args[0]), true
	case "sqrt":
		return math.Sqrt(args[0]), true
	case "int":
		return math.Trunc(args[0]), true
	case "real", "dble":
		return args[0], true
	case "mod":
		if args[1] == 0 {
			return 0, false
		}
		return math.Mod(args[0], args[1]), true
	case "min":
		v := args[0]
		for _, a := range args[1:] {
			v = math.Min(v, a)
		}
		return v, true
	case "max":
		v := args[0]
		for _, a := range args[1:] {
			v = math.Max(v, a)
		}
		return v, true
	default:
		return 0, false
	}
}

// foldBinary applies an arithmetic operator to constants; ints
// reports that both operands are integers.
func foldBinary(k source.BinKind, l, r float64, ints bool) (float64, bool) {
	switch k {
	case source.BinAdd:
		return l + r, true
	case source.BinSub:
		return l - r, true
	case source.BinMul:
		return l * r, true
	case source.BinDiv:
		if r == 0 {
			return 0, false
		}
		if ints {
			return math.Trunc(l / r), true
		}
		return l / r, true
	case source.BinPow:
		if !ints || r >= 0 {
			return math.Pow(l, r), true
		}
		// 1/l**|r| truncated toward zero.
		switch l {
		case 0:
			return 0, false
		case 1:
			return 1, true
		case -1:
			if math.Mod(r, 2) == 0 {
				return 1, true
			}
			return -1, true
		default:
			return 0, true
		}
	default:
		return 0, false
	}
}

// IntConst folds e to an integer constant if possible.
func (t *Table) IntConst(e source.Expr) (int64, bool) {
	v, ok := t.FoldConst(e)
	if !ok || v != math.Trunc(v) {
		return 0, false
	}
	return int64(v), true
}
