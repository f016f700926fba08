package source

import (
	"strings"
	"testing"
)

const matmulSrc = `
program matmul
  integer n, i, j, k
  real a(100,100), b(100,100), c(100,100)
  parameter (n = 100)
!hpf$ distribute a(block, *)
  do i = 1, n
    do j = 1, n
      c(i,j) = 0.0
      do k = 1, n
        c(i,j) = c(i,j) + a(i,k) * b(k,j)
      end do
    end do
  end do
end
`

func mustParse(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return p
}

func TestParseMatmul(t *testing.T) {
	p := mustParse(t, matmulSrc)
	if p.Name != "matmul" {
		t.Errorf("name = %q", p.Name)
	}
	if len(p.Decls) != 2 {
		t.Fatalf("decls = %d", len(p.Decls))
	}
	if p.Decls[0].Type != TypeInteger || len(p.Decls[0].Names) != 4 {
		t.Errorf("integer decl: %+v", p.Decls[0])
	}
	if p.Decls[1].Type != TypeReal || len(p.Decls[1].Names[0].Dims) != 2 {
		t.Errorf("real decl: %+v", p.Decls[1])
	}
	if len(p.Consts) != 1 || p.Consts[0].Name != "n" {
		t.Errorf("consts: %+v", p.Consts)
	}
	if len(p.Dists) != 1 || p.Dists[0].Array != "a" || p.Dists[0].Pattern[0] != "block" || p.Dists[0].Pattern[1] != "*" {
		t.Errorf("dists: %+v", p.Dists[0])
	}
	outer, ok := p.Body[0].(*DoLoop)
	if !ok || outer.Var != "i" {
		t.Fatalf("outer loop: %+v", p.Body[0])
	}
	mid := outer.Body[0].(*DoLoop)
	if len(mid.Body) != 2 {
		t.Fatalf("mid body: %d stmts", len(mid.Body))
	}
	if _, ok := mid.Body[0].(*Assign); !ok {
		t.Error("expected init assignment")
	}
	inner := mid.Body[1].(*DoLoop)
	as := inner.Body[0].(*Assign)
	rhs, ok := as.RHS.(*BinExpr)
	if !ok || rhs.Kind != BinAdd {
		t.Fatalf("rhs: %+v", as.RHS)
	}
	mul, ok := rhs.R.(*BinExpr)
	if !ok || mul.Kind != BinMul {
		t.Fatalf("rhs.R: %+v", rhs.R)
	}
}

func TestParseIfElse(t *testing.T) {
	src := `
program p
  integer i, k, n
  real a(100)
  do i = 1, n
    if (i .le. k) then
      a(i) = 1.0
    else
      a(i) = 2.0
    end if
  end do
end
`
	p := mustParse(t, src)
	loop := p.Body[0].(*DoLoop)
	ifs := loop.Body[0].(*IfStmt)
	cond := ifs.Cond.(*BinExpr)
	if cond.Kind != BinLE {
		t.Errorf("cond kind: %v", cond.Kind)
	}
	if len(ifs.Then) != 1 || len(ifs.Else) != 1 {
		t.Errorf("branches: %d/%d", len(ifs.Then), len(ifs.Else))
	}
}

func TestParseOneLineIf(t *testing.T) {
	src := "program p\n integer i\n real x\n if (i .gt. 0) x = 1.0\nend\n"
	p := mustParse(t, src)
	ifs, ok := p.Body[0].(*IfStmt)
	if !ok || len(ifs.Then) != 1 || ifs.Else != nil {
		t.Fatalf("one-line if: %+v", p.Body[0])
	}
}

func TestParseElseIfChain(t *testing.T) {
	for _, form := range []string{"else if", "elseif"} {
		src := `
program p
  integer i
  real x
  if (i .lt. 0) then
    x = 1.0
  ` + form + ` (i .eq. 0) then
    x = 2.0
  else
    x = 3.0
  end if
end
`
		p := mustParse(t, src)
		ifs := p.Body[0].(*IfStmt)
		nested, ok := ifs.Else[0].(*IfStmt)
		if !ok {
			t.Fatalf("%s: nested = %+v", form, ifs.Else[0])
		}
		if nested.Else == nil {
			t.Errorf("%s: missing final else", form)
		}
	}
}

func TestParseSubroutine(t *testing.T) {
	src := `
subroutine daxpy(n, alpha)
  integer n, i
  real alpha, x(1000), y(1000)
  do i = 1, n
    y(i) = y(i) + alpha * x(i)
  end do
  return
end
`
	p := mustParse(t, src)
	if p.Name != "daxpy" || len(p.Params) != 2 {
		t.Errorf("subroutine: %q %v", p.Name, p.Params)
	}
	if _, ok := p.Body[len(p.Body)-1].(*ReturnStmt); !ok {
		t.Error("missing return")
	}
}

func TestParseStepAndPower(t *testing.T) {
	src := "program p\n integer i, n\n real x\n do i = 1, n, 2\n x = x**2 + 2.0**(-i)\n end do\nend\n"
	p := mustParse(t, src)
	loop := p.Body[0].(*DoLoop)
	if loop.Step == nil {
		t.Fatal("step missing")
	}
	as := loop.Body[0].(*Assign)
	add := as.RHS.(*BinExpr)
	pow := add.L.(*BinExpr)
	if pow.Kind != BinPow {
		t.Errorf("expected power: %v", pow.Kind)
	}
}

func TestParseIntrinsics(t *testing.T) {
	src := "program p\n real x, y\n x = sqrt(abs(y)) + min(x, y) + mod(3, 2)\nend\n"
	p := mustParse(t, src)
	as := p.Body[0].(*Assign)
	s := ExprString(as.RHS)
	for _, fn := range []string{"sqrt", "abs", "min", "mod"} {
		if !strings.Contains(s, fn) {
			t.Errorf("missing %s in %q", fn, s)
		}
	}
}

func TestParseIntrinsicArityError(t *testing.T) {
	if _, err := Parse("program p\n real x\n x = sqrt(x, x)\nend\n"); err == nil {
		t.Error("expected arity error")
	}
	if _, err := Parse("program p\n real x\n x = min(x)\nend\n"); err == nil {
		t.Error("expected variadic arity error")
	}
}

func TestParseCall(t *testing.T) {
	src := "program p\n integer n\n real a(10)\n call solve(a, n, 3.5)\nend\n"
	p := mustParse(t, src)
	c := p.Body[0].(*CallStmt)
	if c.Name != "solve" || len(c.Args) != 3 {
		t.Errorf("call: %+v", c)
	}
}

func TestParseContinuation(t *testing.T) {
	src := "program p\n real x, y\n x = y + &\n 2.0\nend\n"
	p := mustParse(t, src)
	as := p.Body[0].(*Assign)
	if _, ok := as.RHS.(*BinExpr); !ok {
		t.Errorf("continuation rhs: %+v", as.RHS)
	}
}

func TestParseCaseInsensitive(t *testing.T) {
	src := "PROGRAM P\n INTEGER I, N\n REAL X\n DO I = 1, N\n X = X + 1.0\n END DO\nEND\n"
	p := mustParse(t, src)
	if p.Name != "p" {
		t.Errorf("name = %q", p.Name)
	}
	if _, ok := p.Body[0].(*DoLoop); !ok {
		t.Error("DO not parsed")
	}
}

func TestParseRelationalSymbols(t *testing.T) {
	for sym, kind := range map[string]BinKind{
		"<": BinLT, "<=": BinLE, ">": BinGT, ">=": BinGE, "==": BinEQ, "/=": BinNE,
	} {
		src := "program p\n integer i\n real x\n if (i " + sym + " 3) x = 1.0\nend\n"
		p := mustParse(t, src)
		ifs := p.Body[0].(*IfStmt)
		if ifs.Cond.(*BinExpr).Kind != kind {
			t.Errorf("%s parsed as %v", sym, ifs.Cond.(*BinExpr).Kind)
		}
	}
}

func TestParseLogicalOps(t *testing.T) {
	src := "program p\n integer i, n\n real x\n if (i .gt. 0 .and. i .lt. n .or. .not. (i .eq. 5)) x = 1.0\nend\n"
	p := mustParse(t, src)
	ifs := p.Body[0].(*IfStmt)
	or := ifs.Cond.(*BinExpr)
	if or.Kind != BinOr {
		t.Fatalf("top = %v", or.Kind)
	}
	and := or.L.(*BinExpr)
	if and.Kind != BinAnd {
		t.Errorf("left = %v", and.Kind)
	}
	not := or.R.(*UnExpr)
	if not.Neg {
		t.Error(".not. parsed as negation")
	}
}

func TestParseRealForms(t *testing.T) {
	src := "program p\n real x\n x = 1.5 + 1e3 + 2.5d-2 + .25 + 3.\nend\n"
	p := mustParse(t, src)
	s := ExprString(p.Body[0].(*Assign).RHS)
	if !strings.Contains(s, "0.025") && !strings.Contains(s, "2.5e-02") {
		t.Logf("rhs: %s", s) // representation detail, only sanity-check parse
	}
}

func TestParseDotDisambiguation(t *testing.T) {
	// "1.lt.2" must lex as 1 .lt. 2, not real 1. followed by garbage.
	src := "program p\n real x\n if (1.lt.2) x = 1.0\nend\n"
	p := mustParse(t, src)
	ifs := p.Body[0].(*IfStmt)
	if ifs.Cond.(*BinExpr).Kind != BinLT {
		t.Error("dot operator disambiguation failed")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",                                     // empty
		"program\n end\n",                      // missing name
		"program p\n do i = 1\n end do\nend\n", // missing ub
		"program p\n x = \nend\n",              // missing rhs
		"program p\n do i = 1, 5\nend\n",       // unterminated do
		"program p\n if (x) then\nend\n",       // unterminated if
		"program p\n 3 = x\nend\n",             // bad lhs
		"program p\n x = y .qq. z\nend\n",      // unknown dotted op
		"program p\n x = $\nend\n",             // bad char
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

func TestParseBadDirective(t *testing.T) {
	if _, err := Parse("program p\n!hpf$ distribute a(weird)\n real x\n x = 1.0\nend\n"); err == nil {
		t.Error("expected bad-pattern error")
	}
	// Unknown directives are ignored.
	p := mustParse(t, "program p\n!hpf$ independent\n real x\n x = 1.0\nend\n")
	if len(p.Dists) != 0 {
		t.Error("unknown directive produced a distribution")
	}
}

func TestRoundTrip(t *testing.T) {
	srcs := []string{matmulSrc,
		`
subroutine jacobi(n)
  integer n, i, j
  real a(512,512), b(512,512)
  do j = 2, n - 1
    do i = 2, n - 1
      a(i,j) = 0.25 * (b(i-1,j) + b(i+1,j) + b(i,j-1) + b(i,j+1))
    end do
  end do
end
`,
	}
	for _, src := range srcs {
		p1 := mustParse(t, src)
		out := PrintProgram(p1)
		p2, err := Parse(out)
		if err != nil {
			t.Fatalf("re-parse failed: %v\nprinted:\n%s", err, out)
		}
		if PrintProgram(p2) != out {
			t.Errorf("round trip not stable:\n%s\nvs\n%s", out, PrintProgram(p2))
		}
	}
}

func TestCloneProgramIndependent(t *testing.T) {
	p := mustParse(t, matmulSrc)
	c := CloneProgram(p)
	// Mutate the clone's inner loop bound.
	loop := c.Body[0].(*DoLoop)
	loop.Ub = &NumLit{Value: 5}
	if p.Body[0].(*DoLoop).Ub.(*VarRef) == nil {
		t.Error("original mutated")
	}
	if PrintProgram(p) == PrintProgram(c) {
		t.Error("clone mutation affected original")
	}
}

func TestLexPositions(t *testing.T) {
	lx := NewLexer("x = 1\ny = 2\n")
	for i := 0; ; i++ {
		tok, err := lx.Next()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 && (tok.Pos.Line != 1 || tok.Pos.Col != 1) {
			t.Errorf("first token pos: %v", tok.Pos)
		}
		if tok.Kind == TokEOF {
			break
		}
		if tok.Kind == TokIdent && tok.Text == "y" {
			if tok.Pos.Line != 2 {
				t.Errorf("y pos: %v", tok.Pos)
			}
			return
		}
	}
	t.Error("y not found")
}
