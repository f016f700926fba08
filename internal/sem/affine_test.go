package sem_test

import (
	"strconv"
	"strings"
	"testing"

	"perfpredict/internal/sem"
	"perfpredict/internal/source"
)

// render writes a form as its terms in order, "c*v" joined by "+",
// then the constant; "-" when the expression is not affine.
func render(a sem.Affine, ok bool) string {
	if !ok {
		return "-"
	}
	var parts []string
	for i := range a.Len() {
		t := a.Term(i)
		parts = append(parts, strconv.FormatInt(t.Coeff, 10)+"*"+t.Var)
	}
	return strings.Join(append(parts, strconv.FormatInt(a.Const, 10)), "+")
}

// handSubscript analyzes handProgram(sub) and returns its table and
// the subscript.
func handSubscript(t testing.TB, sub string) (*sem.Table, source.Expr) {
	t.Helper()
	p, err := source.Parse(handProgram(sub))
	if err != nil {
		t.Fatalf("%s: %v", sub, err)
	}
	tbl, err := sem.Analyze(p)
	if err != nil {
		t.Fatalf("%s: %v", sub, err)
	}
	return tbl, subscriptSites(p)[0].e
}

func TestAffine(t *testing.T) {
	for _, c := range []struct{ sub, want string }{
		// Literals and PARAMETERs (k = 8).
		{"7", "7"},
		{"k", "8"},
		{"k + 1", "9"},
		// Constants the recursion does not enter fold by FoldConst.
		{"k/2", "4"},
		{"mod(k,3)", "2"},
		{"k/2 + i", "1*i+4"},
		// Negation.
		{"-i", "-1*i+0"},
		{"-(j - k)", "-1*j+8"},
		{"2*(i+1) - 1", "2*i+1"},
		{"i + 1 + 1 + 1", "1*i+3"},
		// A non-loop scalar is a variable like any other.
		{"n*2 + i", "1*i+2*n+0"},
		{"j + i - n", "1*i+1*j+-1*n+0"},
		// Zero terms are dropped.
		{"i - i", "0"},
		{"i + j - j", "1*i+0"},
		{"0*i + j", "1*j+0"},
		// Not affine.
		{"i*j", "-"},
		{"n*i", "-"},
		{"i/2", "-"},
		{"int(r)", "-"},
		// An integer power with a negative exponent truncates.
		{"2**(-1)", "0"},
		{"2**(-1) + i", "1*i+0"},
	} {
		tbl, e := handSubscript(t, c.sub)
		if got := render(tbl.Affine(e)); got != c.want {
			t.Errorf("Affine(%s) = %s, want %s", c.sub, got, c.want)
		}
	}
}

// TestAffineLoopVar: the projection cachemodel and comm read.
func TestAffineLoopVar(t *testing.T) {
	loops := map[string]bool{"i": true, "j": true}
	for _, c := range []struct {
		sub  string
		v    string
		coef int64
		ok   bool
	}{
		{"k", "", 0, true},
		{"2*i + n", "i", 2, true},
		{"i - i + 1", "", 0, true},
		{"i + j", "", 0, false},
	} {
		tbl, e := handSubscript(t, c.sub)
		a, _ := tbl.Affine(e)
		if v, coef, ok := a.LoopVar(loops); v != c.v || coef != c.coef || ok != c.ok {
			t.Errorf("LoopVar(%s) = %q, %d, %v; want %q, %d, %v", c.sub, v, coef, ok, c.v, c.coef, c.ok)
		}
	}
}

// TestAffineAllocatesNothing: the form of a subscript in at most one
// variable, lowering's hot path, allocates nothing.
func TestAffineAllocatesNothing(t *testing.T) {
	for _, sub := range []string{"i", "i + 1 + 1 + 1", "2*(i+1) - k", "-(j - 3)", "k + 1", "0*n + i"} {
		tbl, e := handSubscript(t, sub)
		if n := testing.AllocsPerRun(100, func() { tbl.Affine(e) }); n != 0 {
			t.Errorf("Affine(%s): %v allocations, want 0", sub, n)
		}
	}
}
