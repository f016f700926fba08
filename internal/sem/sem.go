// Package sem implements F-lite semantic analysis: symbol tables with
// Fortran implicit typing, array-rank and type checking, PARAMETER
// constant resolution, and constant folding — the "program analysis
// module" whose results feed the instruction-translation module.
package sem

import (
	"errors"
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
	// analyzed is set when Analyze returns; from then on the table is
	// read-only, so tables that share their symbols may be read
	// concurrently.
	analyzed bool
}

// Rebind returns t as the table of p, a program that declares what t's
// program declares and reads no name t lacks, such as one restructured
// by moves that neither declare nor introduce a name: Analyze(p) would
// find the same symbols. The two tables share their symbols, which
// neither changes.
func (t *Table) Rebind(p *source.Program) *Table {
	return &Table{Program: p, syms: t.syms, order: t.order, analyzed: true}
}

// Lookup returns the symbol for name, or nil.
func (t *Table) Lookup(name string) *Symbol { return t.syms[name] }

// Len returns the number of symbols.
func (t *Table) Len() int { return len(t.order) }

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
	t.analyzed = true
	return t, nil
}

// resolve returns the symbol for a use, creating an implicitly typed
// scalar if absent. An analyzed table is not changed: a name its
// program does not use resolves to a symbol that is not added.
func (t *Table) resolve(name string) *Symbol {
	if s := t.Lookup(name); s != nil {
		return s
	}
	s := &Symbol{Name: name, Type: implicitType(name)}
	if !t.analyzed {
		t.add(s)
	}
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

// Env supplies the values of an expression's variables to Eval. The
// nil Env supplies only the PARAMETER constants: evaluating in it is
// constant folding (FoldConst).
type Env struct {
	// Scalars holds the value of every scalar, constants included.
	Scalars map[string]float64
	// Element reads the element of ref at the given subscript values;
	// with none, an array element does not evaluate.
	Element func(ref *source.ArrayRef, subs []float64) (float64, error)
	// subs stacks the subscript values of the array references being
	// evaluated, so a read allocates nothing once it has grown.
	subs []float64
}

// errNoFold is every error of the nil Env, which asks only whether an
// expression folds.
var errNoFold = errors.New("not a compile-time constant")

// FoldConst evaluates e when it only involves literals and PARAMETER
// constants: Eval in the nil Env. Transcendental intrinsics (exp, log,
// sin, cos) do not fold.
func (t *Table) FoldConst(e source.Expr) (float64, bool) {
	n, err := t.eval(e, nil)
	return n.v, err == nil
}

// Eval evaluates e as F-lite defines it, reading variables from env:
// integer division truncates, and an integer power with a negative
// exponent is 1/l**|r| truncated toward zero, so 2**(-1) is 0 and
// (-1)**(-3) is -1. A division or mod by zero, 0**(-n), a relational
// or logical operator and an unknown intrinsic do not evaluate.
func (t *Table) Eval(e source.Expr, env *Env) (float64, error) {
	n, err := t.eval(e, env)
	return n.v, err
}

// value is one evaluated node and, when typing succeeds, its type as
// TypeOf infers it (typed false when TypeOf fails).
type value struct {
	v     float64
	typed bool
	ty    source.Type
}

// eval evaluates e and types it in one bottom-up recursion, typing each
// node by NodeType from its operands' types, so that the division and
// power rules, which read their operands' types, cost O(1) per node
// instead of a TypeOf walk of each operand subtree. An operand whose
// typing fails means real division.
func (t *Table) eval(e source.Expr, env *Env) (value, error) {
	var kidBuf [4]source.Type
	kids := kidBuf[:0]
	typed := true
	var n value
	switch x := e.(type) {
	case *source.NumLit:
		n.v = x.Value
	case *source.VarRef:
		var ok bool
		if env != nil {
			n.v, ok = env.Scalars[x.Name]
		} else if s := t.Lookup(x.Name); s != nil && s.IsConst {
			n.v, ok = s.ConstVal, true
		}
		if !ok {
			return value{}, env.fault(e)
		}
	case *source.UnExpr:
		if !x.Neg {
			return value{}, env.fault(e)
		}
		c, err := t.eval(x.X, env)
		c.v = -c.v
		return c, err
	case *source.ArrayRef:
		if env == nil || env.Element == nil {
			return value{}, env.fault(e)
		}
		base := len(env.subs)
		for _, ix := range x.Idx {
			c, err := t.eval(ix, env)
			if err != nil {
				env.subs = env.subs[:base]
				return value{}, err
			}
			env.subs = append(env.subs, c.v)
			kids = append(kids, c.ty)
			typed = typed && c.typed
		}
		v, err := env.Element(x, env.subs[base:])
		env.subs = env.subs[:base]
		if err != nil {
			return value{}, err
		}
		n.v = v
	case *source.IntrinsicCall:
		var argBuf [4]float64
		args := argBuf[:0]
		for _, a := range x.Args {
			c, err := t.eval(a, env)
			if err != nil {
				return value{}, err
			}
			args = append(args, c.v)
			kids = append(kids, c.ty)
			typed = typed && c.typed
		}
		v, ok := intrinsic(x.Name, args, env != nil)
		if !ok {
			return value{}, env.fault(e)
		}
		n.v = v
	case *source.BinExpr:
		l, err := t.eval(x.L, env)
		if err != nil {
			return value{}, err
		}
		r, err := t.eval(x.R, env)
		if err != nil {
			return value{}, err
		}
		typed = l.typed && r.typed
		ints := typed && l.ty == source.TypeInteger && r.ty == source.TypeInteger
		v, ok := binary(x.Kind, l.v, r.v, ints)
		if !ok {
			return value{}, env.fault(e)
		}
		n.v = v
		kids = append(kids, l.ty, r.ty)
	default:
		return value{}, env.fault(e)
	}
	if typed {
		ty, err := t.NodeType(e, kids)
		n.ty, n.typed = ty, err == nil
	}
	return n, nil
}

// fault is the error for node e, which does not evaluate in env:
// errNoFold in the nil Env, which asks only whether e folds.
func (env *Env) fault(e source.Expr) error {
	if env == nil {
		return errNoFold
	}
	switch x := e.(type) {
	case *source.VarRef:
		return fmt.Errorf("%s: unbound scalar %q", x.Pos, x.Name)
	case *source.IntrinsicCall:
		if x.Name == "mod" {
			return errors.New("mod by zero")
		}
	case *source.BinExpr:
		if x.Kind == source.BinDiv {
			return fmt.Errorf("%s: division by zero", x.Pos)
		}
	}
	return fmt.Errorf("%s: cannot evaluate %s", e.ExprPos(), source.ExprString(e))
}

// transcendentals are the intrinsics that evaluate only with an Env:
// they are not compile-time constants.
var transcendentals = map[string]func(float64) float64{
	"exp": math.Exp, "log": math.Log, "sin": math.Sin, "cos": math.Cos,
}

// intrinsic applies a numeric intrinsic; a transcendental one applies
// only when transcendental is set.
func intrinsic(name string, args []float64, transcendental bool) (float64, bool) {
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
		return slices.Min(args), true
	case "max":
		return slices.Max(args), true
	}
	if f, ok := transcendentals[name]; ok && transcendental {
		return f(args[0]), true
	}
	return 0, false
}

// binary applies an arithmetic operator; ints reports that both
// operands are integers.
func binary(k source.BinKind, l, r float64, ints bool) (float64, bool) {
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
