package sem

import (
	"strings"
	"testing"

	"perfpredict/internal/source"
)

func analyze(t *testing.T, src string) *Table {
	t.Helper()
	p, err := source.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	tbl, err := Analyze(p)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return tbl
}

func analyzeErr(t *testing.T, src string) error {
	t.Helper()
	p, err := source.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	_, err = Analyze(p)
	if err == nil {
		t.Fatalf("expected semantic error for:\n%s", src)
	}
	return err
}

func TestSymbolsAndDims(t *testing.T) {
	tbl := analyze(t, `
program p
  integer n, i
  real a(100, 200), x
  parameter (n = 100)
  do i = 1, n
    a(i, 1) = x
  end do
end
`)
	a := tbl.Lookup("a")
	if a == nil || !a.IsArray() || a.Rank() != 2 {
		t.Fatalf("a: %+v", a)
	}
	if a.Dims[0] != 100 || a.Dims[1] != 200 {
		t.Errorf("dims: %v", a.Dims)
	}
	n := tbl.Lookup("n")
	if !n.IsConst || n.ConstVal != 100 {
		t.Errorf("n: %+v", n)
	}
	if x := tbl.Lookup("x"); x.Type != source.TypeReal || x.IsArray() {
		t.Errorf("x: %+v", x)
	}
	if len(tbl.Arrays()) != 1 {
		t.Errorf("arrays: %v", tbl.Arrays())
	}
}

func TestParameterDimension(t *testing.T) {
	tbl := analyze(t, `
program p
  integer n
  parameter (n = 64)
  real a(n, n)
  a(1,1) = 0.0
end
`)
	a := tbl.Lookup("a")
	if a.Dims[0] != 64 || a.Dims[1] != 64 {
		t.Errorf("dims: %v", a.Dims)
	}
}

func TestSymbolicDims(t *testing.T) {
	tbl := analyze(t, `
subroutine s(n)
  integer n
  real a(n)
  a(1) = 0.0
end
`)
	a := tbl.Lookup("a")
	if a.Dims[0] != -1 {
		t.Errorf("symbolic dim: %v", a.Dims)
	}
	if !tbl.Lookup("n").IsDummy {
		t.Error("n not marked dummy")
	}
}

func TestImplicitTyping(t *testing.T) {
	tbl := analyze(t, `
program p
  x = 1.0
  idx = 3
end
`)
	if tbl.Lookup("x").Type != source.TypeReal {
		t.Error("x should be real")
	}
	if tbl.Lookup("idx").Type != source.TypeInteger {
		t.Error("idx should be integer")
	}
}

func TestTypeOf(t *testing.T) {
	tbl := analyze(t, `
program p
  integer i, n
  real x, a(10)
  x = a(i) + 1.0
  i = n / 2
end
`)
	p := tbl.Program
	// x = a(i) + 1.0 → real
	rhs := p.Body[0].(*source.Assign).RHS
	ty, err := tbl.TypeOf(rhs)
	if err != nil || ty != source.TypeReal {
		t.Errorf("TypeOf = %v, %v", ty, err)
	}
	// i = n/2 → integer
	rhs2 := p.Body[1].(*source.Assign).RHS
	ty, err = tbl.TypeOf(rhs2)
	if err != nil || ty != source.TypeInteger {
		t.Errorf("TypeOf = %v, %v", ty, err)
	}
}

func TestMixedTypePromotion(t *testing.T) {
	tbl := analyze(t, "program p\n integer i\n real x\n x = i * 2.0\nend\n")
	rhs := tbl.Program.Body[0].(*source.Assign).RHS
	ty, _ := tbl.TypeOf(rhs)
	if ty != source.TypeReal {
		t.Errorf("int*real = %v", ty)
	}
}

func TestFoldConst(t *testing.T) {
	tbl := analyze(t, `
program p
  integer n, m
  parameter (n = 10, m = n * 4 + 2)
  real x
  x = 1.0
end
`)
	m := tbl.Lookup("m")
	if !m.IsConst || m.ConstVal != 42 {
		t.Errorf("m = %+v", m)
	}
	// Fold intrinsics and power.
	p, _ := source.Parse("program q\n integer k\n parameter (k = max(3, 5) + 2**3 + abs(-1) + min(9, 4) + mod(7, 4) + int(2.9))\n real x\n x = 1.0\nend\n")
	tbl2, err := Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	k := tbl2.Lookup("k")
	want := float64(5 + 8 + 1 + 4 + 3 + 2)
	if k.ConstVal != want {
		t.Errorf("k = %v, want %v", k.ConstVal, want)
	}
}

func TestIntegerDivisionFolds(t *testing.T) {
	tbl := analyze(t, "program p\n integer k\n parameter (k = 7 / 2)\n real x\n x = 1.0\nend\n")
	if v := tbl.Lookup("k").ConstVal; v != 3 {
		t.Errorf("7/2 folded to %v", v)
	}
}

func TestIntConst(t *testing.T) {
	tbl := analyze(t, "program p\n integer n\n parameter (n = 8)\n real x\n x = 1.0\nend\n")
	v, ok := tbl.IntConst(&source.VarRef{Name: "n"})
	if !ok || v != 8 {
		t.Errorf("IntConst = %v, %v", v, ok)
	}
	if _, ok := tbl.IntConst(&source.VarRef{Name: "x"}); ok {
		t.Error("non-const folded")
	}
}

func TestDistributionAttached(t *testing.T) {
	tbl := analyze(t, `
program p
  real a(64, 64)
!hpf$ distribute a(block, *)
  a(1,1) = 0.0
end
`)
	a := tbl.Lookup("a")
	if a.Dist == nil || a.Dist.Pattern[0] != "block" {
		t.Errorf("dist: %+v", a.Dist)
	}
}

func TestErrors(t *testing.T) {
	cases := map[string]string{
		"duplicate decl": `
program p
  integer x
  real x
  x = 1
end`,
		"const not constant": `
program p
  integer n, m
  parameter (n = m + 1)
  real x
  x = 1.0
end`,
		"assign to parameter": `
program p
  integer n
  parameter (n = 10)
  n = 5
end`,
		"rank mismatch": `
program p
  real a(10, 10)
  a(1) = 0.0
end`,
		"scalar subscripted": `
program p
  real x
  x(1) = 0.0
end`,
		"array as scalar": `
program p
  real a(10), x
  x = a + 1.0
end`,
		"real loop var": `
program p
  real r
  integer n
  do r = 1, n
    n = n
  end do
end`,
		"real loop bound": `
program p
  integer i
  real x
  do i = 1, x
    x = x
  end do
end`,
		"non-integer subscript": `
program p
  real a(10), x
  a(x) = 0.0
end`,
		"non-logical if": `
program p
  integer i
  real x
  if (i + 1) x = 1.0
end`,
		"distribute unknown array": `
program p
  real x
!hpf$ distribute q(block)
  x = 1.0
end`,
		"distribute rank mismatch": `
program p
  real a(10, 10)
!hpf$ distribute a(block)
  a(1,1) = 0.0
end`,
		"array assigned whole": `
program p
  real a(10)
  a = 0.0
end`,
		"non-positive extent": `
program p
  real a(0)
  a(1) = 0.0
end`,
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			err := analyzeErr(t, src)
			if err.Error() == "" {
				t.Error("empty error message")
			}
		})
	}
}

func TestLogicalConditionForms(t *testing.T) {
	// .not. of a relational is fine; relational chains are fine.
	analyze(t, `
program p
  integer i, n
  real x
  if (.not. (i .gt. n) .and. i .le. 10) x = 1.0
end
`)
}

func TestCallWithWholeArray(t *testing.T) {
	tbl := analyze(t, `
program p
  real a(10)
  integer n
  call sub(a, n)
end
`)
	if tbl.Lookup("a") == nil {
		t.Error("array arg not resolved")
	}
}

func TestErrorMessagesCarryPosition(t *testing.T) {
	err := analyzeErr(t, "program p\n real a(10,10)\n a(1) = 0.0\nend\n")
	if !strings.Contains(err.Error(), ":") {
		t.Errorf("error lacks position: %v", err)
	}
}

// TestAnalyzedTableReadOnly: typing a name the program never uses
// through an analyzed table, or one rebound to another program, gives
// the implicit type and adds no symbol, so tables that share their
// symbols can be read concurrently.
func TestAnalyzedTableReadOnly(t *testing.T) {
	tbl := analyze(t, `
program p
  integer i
  real a(10)
  do i = 1, 10
    a(i) = 1.0
  end do
end
`)
	n := tbl.Len()
	for _, tb := range []*Table{tbl, tbl.Rebind(tbl.Program)} {
		for _, c := range []struct {
			name string
			want source.Type
		}{{"k", source.TypeInteger}, {"x", source.TypeReal}} {
			ty, err := tb.NodeType(&source.VarRef{Name: c.name}, nil)
			if err != nil || ty != c.want {
				t.Errorf("NodeType(%s) = %v, %v; want %v", c.name, ty, err, c.want)
			}
			if tb.Lookup(c.name) != nil || tb.Len() != n {
				t.Errorf("typing %s added a symbol to an analyzed table", c.name)
			}
		}
	}
}
