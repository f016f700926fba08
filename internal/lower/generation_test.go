package lower

import (
	"fmt"
	"testing"

	"perfpredict/internal/machine"
	"perfpredict/internal/sem"
	"perfpredict/internal/source"
)

// TestGenerationWrap: when a pass, epoch or binding counter wraps
// around, the stamps of the oldest entries would match again, so the
// translator empties the map the counter stamps. Lowering across every
// wrap equals a fresh translator's.
func TestGenerationWrap(t *testing.T) {
	p, err := source.Parse(`program w
  integer i, j, n
  real a(100, 100), b(100, 100), s
  do i = 1, n
    do j = 1, n
      a(i, j) = a(i, j) + b(j, i) * b(j, i + 1) + s
      s = s + a(i, j) * a(i, j)
    end do
  end do
end
`)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := sem.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	inner := p.Body[0].(*source.DoLoop).Body[0].(*source.DoLoop).Body
	vars := []string{"i", "j"}
	render := func(tr *Translator) string {
		lw, err := tr.Body(inner, vars)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(lw.Body.Instrs, lw.Pre.Instrs, lw.PerEntry.Instrs, lw.Post.Instrs)
	}
	m := machine.NewPOWER1()
	want := render(New(tbl, m, DefaultOptions()))
	tr := New(tbl, m, DefaultOptions())
	render(tr)
	if len(tr.vns) == 0 || len(tr.memo) == 0 || len(tr.subCache) == 0 || len(tr.addrCache) == 0 {
		t.Fatal("the lowering filled no map")
	}
	tr.pass, tr.epoch, tr.bound = ^uint32(0), ^uint32(0), ^uint32(0)
	tr.Reset(tbl, m)
	tr.reset(nil)
	if n := len(tr.vns) + len(tr.memo) + len(tr.subCache) + len(tr.addrCache); n != 0 {
		t.Fatalf("%d entries survive the counters' wrap-around", n)
	}
	for i := 0; i < 3; i++ {
		tr.Reset(tbl, m)
		if got := render(tr); got != want {
			t.Fatalf("lowering %d after the counters wrap:\n%s\nwant\n%s", i, got, want)
		}
	}
}

// TestStaleEntriesBounded: stamped maps never delete, so Reset empties
// a map holding more than staleLimit entries. Rebinding one translator
// to 5,000 distinct programs of one nest each keeps every map within
// staleLimit and one program's entries, and no AST node of the first
// program.
func TestStaleEntriesBounded(t *testing.T) {
	m := machine.NewPOWER1()
	var tr *Translator
	var first *source.Program
	one := 0 // entries a single program leaves
	for k := 0; k < 5000; k++ {
		p, err := source.Parse(fmt.Sprintf(`program s
  integer i, n
  real a(500), b(500), s
  do i = 1, n
    a(i + %d) = a(i) * b(i + %d) + s * b(i)
  end do
end
`, k, k+1))
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := sem.Analyze(p)
		if err != nil {
			t.Fatal(err)
		}
		if tr == nil {
			tr, first = New(tbl, m, DefaultOptions()), p
		} else {
			tr.Reset(tbl, m)
		}
		if _, err := tr.Body(p.Body[0].(*source.DoLoop).Body, []string{"i"}); err != nil {
			t.Fatal(err)
		}
		if k == 0 {
			one = max(len(tr.vns), len(tr.memo), len(tr.subCache), len(tr.addrCache))
		}
	}
	for name, n := range map[string]int{"vns": len(tr.vns), "memo": len(tr.memo), "subCache": len(tr.subCache), "addrCache": len(tr.addrCache)} {
		if n > staleLimit+one {
			t.Errorf("%s holds %d entries after 5,000 bindings, above %d + %d", name, n, staleLimit, one)
		}
	}
	inner := first.Body[0].(*source.DoLoop).Body[0].(*source.Assign)
	if _, ok := tr.addrCache[inner.LHS.(*source.ArrayRef)]; ok {
		t.Error("the first program's address entry survived 4,999 Resets")
	}
}
