package sem_test

import (
	"math"
	"testing"

	"perfpredict/internal/sem"
	"perfpredict/internal/source"
)

// refFoldConst is FoldConst as it stood before it folded and typed in
// one recursion: integer division typed both operand subtrees with
// TypeOf at every level, and every power folded by math.Pow. It is
// kept only as the reference TestFoldConstMatchesOld holds FoldConst
// to.
func refFoldConst(t *sem.Table, e source.Expr) (float64, bool) {
	switch x := e.(type) {
	case *source.NumLit:
		return x.Value, true
	case *source.VarRef:
		if s := t.Lookup(x.Name); s != nil && s.IsConst {
			return s.ConstVal, true
		}
		return 0, false
	case *source.UnExpr:
		if !x.Neg {
			return 0, false
		}
		v, ok := refFoldConst(t, x.X)
		return -v, ok
	case *source.IntrinsicCall:
		args := make([]float64, len(x.Args))
		for i, a := range x.Args {
			v, ok := refFoldConst(t, a)
			if !ok {
				return 0, false
			}
			args[i] = v
		}
		switch x.Name {
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
	case *source.BinExpr:
		l, ok := refFoldConst(t, x.L)
		if !ok {
			return 0, false
		}
		r, ok := refFoldConst(t, x.R)
		if !ok {
			return 0, false
		}
		switch x.Kind {
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
			// Integer division truncates.
			if lt, err1 := t.TypeOf(x.L); err1 == nil && lt == source.TypeInteger {
				if rt, err2 := t.TypeOf(x.R); err2 == nil && rt == source.TypeInteger {
					return math.Trunc(l / r), true
				}
			}
			return l / r, true
		case source.BinPow:
			return math.Pow(l, r), true
		default:
			return 0, false
		}
	default:
		return 0, false
	}
}

// allExprs lists every expression of p, sub-expressions included:
// dimension extents, PARAMETER values, and the expressions of every
// statement.
func allExprs(p *source.Program) []source.Expr {
	var out []source.Expr
	var expr func(e source.Expr)
	expr = func(e source.Expr) {
		if e == nil {
			return
		}
		out = append(out, e)
		switch x := e.(type) {
		case *source.ArrayRef:
			for _, ix := range x.Idx {
				expr(ix)
			}
		case *source.IntrinsicCall:
			for _, a := range x.Args {
				expr(a)
			}
		case *source.UnExpr:
			expr(x.X)
		case *source.BinExpr:
			expr(x.L)
			expr(x.R)
		}
	}
	var stmts func(list []source.Stmt)
	stmts = func(list []source.Stmt) {
		for _, s := range list {
			switch x := s.(type) {
			case *source.Assign:
				expr(x.LHS)
				expr(x.RHS)
			case *source.CallStmt:
				for _, a := range x.Args {
					expr(a)
				}
			case *source.IfStmt:
				expr(x.Cond)
				stmts(x.Then)
				stmts(x.Else)
			case *source.DoLoop:
				expr(x.Lb)
				expr(x.Ub)
				expr(x.Step)
				stmts(x.Body)
			}
		}
	}
	for _, d := range p.Decls {
		for _, n := range d.Names {
			for _, dim := range n.Dims {
				expr(dim)
			}
		}
	}
	for _, c := range p.Consts {
		expr(c.Value)
	}
	stmts(p.Body)
	return out
}

// foldShapes mixes integer and real operands under division, the
// intrinsics and powers, so that every typing rule the fold reads is
// exercised.
const foldShapes = `program folds
  integer i, k, m
  parameter (k = 7, m = -3, q = 2.5)
  real r, a(100)
  r = k / 2 + 7.0 / 2 + real(k) / 2 + mod(k, 3) / 2 + min(k, 8.0) / 2
  r = (-k) / 2 + k / (-2) + int(q) / 2 + abs(m) / 2 + max(k, m, 1) / 3
  r = k ** 2 / 3 + 2 ** 3 ** 2 + q ** 2 / 2 + sqrt(16.0) / 3 + dble(k) / 2
  r = (k / 2) / (m / 2) + (k * 1.0) / 2 + (k - m) / 4 + mod(7.5, 2.0) / 2
  r = k / 2.5 + k / q + 9 / real(2) + 9 / abs(-2.0) + 9 / int(2.5)
  i = k / 0 + 1
  a(k / 2 + 1) = a(i / 2) + r / 2
end
`

// TestFoldConstMatchesOld: over every expression of the corpus, the
// kernels, progen seeds 0–2999 and foldShapes, FoldConst folds exactly
// what refFoldConst folded, to the same value. None of these has an
// integer power with a negative exponent, the one shape on which the
// two differ (TestFoldConstIntegerPower).
func TestFoldConstMatchesOld(t *testing.T) {
	progs := basePrograms(t)
	p, err := source.Parse(foldShapes)
	if err != nil {
		t.Fatal(err)
	}
	progs["foldShapes"] = p
	exprs, folded := 0, 0
	for name, p := range progs {
		tbl, err := sem.Analyze(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, e := range allExprs(p) {
			exprs++
			got, gok := tbl.FoldConst(e)
			want, wok := refFoldConst(tbl, e)
			if gok != wok || gok && math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s: FoldConst(%s) = %v, %v; the old fold gave %v, %v", name, source.ExprString(e), got, gok, want, wok)
			}
			if gok {
				folded++
			}
		}
	}
	t.Logf("%d programs, %d expressions, %d folded", len(progs), exprs, folded)
	if folded == 0 {
		t.Error("no expression folded")
	}
}

// TestFoldConstIntegerPower: an integer raised to a negative integer
// folds as Fortran defines it, 1/l**|r| truncated toward zero; a real
// operand on either side keeps the real power.
func TestFoldConstIntegerPower(t *testing.T) {
	for _, c := range []struct {
		expr string
		want float64
		ok   bool
	}{
		{"2**(-1)", 0, true},
		{"(-2)**(-1)", 0, true},
		{"k**(-2)", 0, true},
		{"1**(-5)", 1, true},
		{"(-1)**(-3)", -1, true},
		{"(-1)**(-4)", 1, true},
		{"0**(-1)", 0, false},
		{"2**3", 8, true},
		{"2**0", 1, true},
		{"2.0**(-1)", 0.5, true},
		{"2**(-1.0)", 0.5, true},
		{"2**(-1) + 1", 1, true},
	} {
		p, err := source.Parse("program f\n  integer k\n  parameter (k = 8)\n  real s\n  s = " + c.expr + "\nend\n")
		if err != nil {
			t.Fatalf("%s: %v", c.expr, err)
		}
		tbl, err := sem.Analyze(p)
		if err != nil {
			t.Fatalf("%s: %v", c.expr, err)
		}
		got, ok := tbl.FoldConst(p.Body[0].(*source.Assign).RHS)
		if ok != c.ok || ok && got != c.want {
			t.Errorf("FoldConst(%s) = %v, %v; want %v, %v", c.expr, got, ok, c.want, c.ok)
		}
	}
}
