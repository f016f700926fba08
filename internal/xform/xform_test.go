package xform

import (
	"context"
	"strings"
	"testing"

	"perfpredict/internal/interp"
	"perfpredict/internal/machine"
	"perfpredict/internal/sem"
	"perfpredict/internal/source"
)

func parse(t *testing.T, src string) *source.Program {
	t.Helper()
	p, err := source.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if _, err := sem.Analyze(p); err != nil {
		t.Fatalf("sem: %v", err)
	}
	return p
}

// runValues executes a program and returns a named array.
func runValues(t *testing.T, p *source.Program, arr string, args map[string]float64) []float64 {
	t.Helper()
	tbl, err := sem.Analyze(p)
	if err != nil {
		t.Fatalf("sem: %v\n%s", err, source.PrintProgram(p))
	}
	r := interp.New(p, tbl, interp.Options{})
	for k, v := range args {
		r.SetScalar(k, v)
	}
	if err := r.Run(); err != nil {
		t.Fatalf("run: %v\n%s", err, source.PrintProgram(p))
	}
	return r.Array(arr)
}

func sameValues(t *testing.T, a, b []float64, label string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: lengths %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: element %d differs: %v vs %v", label, i, a[i], b[i])
		}
	}
}

const daxpySrc = `
program daxpy
  integer i, n
  parameter (n = 103)
  real x(103), y(103)
  do i = 1, n
    y(i) = y(i) + 2.0 * x(i) + real(i)
  end do
end
`

func TestFindLoops(t *testing.T) {
	p := parse(t, `
program p
  integer i, j, n
  parameter (n = 8)
  real a(8,8)
  do i = 1, n
    do j = 1, n
      a(i,j) = 1.0
    end do
  end do
  do i = 1, n
    a(i,i) = 2.0
  end do
end
`)
	sites := FindLoops(p)
	if len(sites) != 3 {
		t.Fatalf("sites: %d", len(sites))
	}
	if !sites[0].PerfectParent || sites[0].Innermost {
		t.Errorf("outer site: %+v", sites[0])
	}
	if !sites[1].Innermost || sites[1].Depth != 1 {
		t.Errorf("inner site: %+v", sites[1])
	}
	if !sites[2].Innermost || sites[2].Depth != 0 {
		t.Errorf("second loop site: %+v", sites[2])
	}
}

func TestUnrollPreservesSemantics(t *testing.T) {
	p := parse(t, daxpySrc)
	ref := runValues(t, p, "y", nil)
	for _, f := range []int{2, 3, 4, 8} {
		u, err := Unroll(p, Path{0}, f)
		if err != nil {
			t.Fatalf("unroll %d: %v", f, err)
		}
		got := runValues(t, u, "y", nil)
		sameValues(t, ref, got, "unroll")
	}
}

func TestUnrollWithStep(t *testing.T) {
	p := parse(t, `
program p
  integer i, n
  parameter (n = 50)
  real a(100)
  do i = 1, n, 3
    a(i) = real(i)
  end do
end
`)
	ref := runValues(t, p, "a", nil)
	u, err := Unroll(p, Path{0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	got := runValues(t, u, "a", nil)
	sameValues(t, ref, got, "unroll-step")
}

func TestUnrollStructure(t *testing.T) {
	p := parse(t, daxpySrc)
	u, err := Unroll(p, Path{0}, 4)
	if err != nil {
		t.Fatal(err)
	}
	main := u.Body[0].(*source.DoLoop)
	if len(main.Body) != 4 {
		t.Errorf("main body: %d stmts", len(main.Body))
	}
	if _, ok := u.Body[1].(*source.DoLoop); !ok {
		t.Error("missing remainder loop")
	}
	out := source.PrintProgram(u)
	if !strings.Contains(out, "(i + 3)") && !strings.Contains(out, "(i+3)") {
		t.Errorf("missing substituted body:\n%s", out)
	}
}

func TestInterchangePreservesSemantics(t *testing.T) {
	src := `
program p
  integer i, j, n
  parameter (n = 12)
  real a(12,12), b(12,12)
  do i = 1, n
    do j = 1, n
      a(i,j) = b(i,j) * 2.0 + real(i) + real(j) * 10.0
    end do
  end do
end
`
	p := parse(t, src)
	ref := runValues(t, p, "a", nil)
	ic, err := Interchange(p, Path{0})
	if err != nil {
		t.Fatal(err)
	}
	got := runValues(t, ic, "a", nil)
	sameValues(t, ref, got, "interchange")
	// Structure: outer var is now j.
	if ic.Body[0].(*source.DoLoop).Var != "j" {
		t.Errorf("outer var: %s", ic.Body[0].(*source.DoLoop).Var)
	}
}

func TestInterchangeIllegalWavefront(t *testing.T) {
	src := `
program p
  integer i, j, n
  parameter (n = 12)
  real a(13,13)
  do i = 2, n
    do j = 1, n - 1
      a(i,j) = a(i-1,j+1) + 1.0
    end do
  end do
end
`
	p := parse(t, src)
	if _, err := Interchange(p, Path{0}); err == nil {
		t.Error("(1,-1) wavefront interchange must be rejected")
	}
}

func TestInterchangeTriangularRejected(t *testing.T) {
	src := `
program p
  integer i, j, n
  parameter (n = 12)
  real a(12,12)
  do i = 1, n
    do j = 1, i
      a(i,j) = 1.0
    end do
  end do
end
`
	p := parse(t, src)
	if _, err := Interchange(p, Path{0}); err == nil {
		t.Error("triangular interchange must be rejected")
	}
}

func TestTilePreservesSemantics(t *testing.T) {
	src := `
program p
  integer i, n
  parameter (n = 103)
  real a(103)
  do i = 1, n
    a(i) = real(i) * 3.0
  end do
end
`
	p := parse(t, src)
	ref := runValues(t, p, "a", nil)
	for _, size := range []int{4, 16, 50} {
		tl, err := Tile(p, Path{0}, size)
		if err != nil {
			t.Fatalf("tile %d: %v", size, err)
		}
		got := runValues(t, tl, "a", nil)
		sameValues(t, ref, got, "tile")
		// New control variable declared.
		if _, err := sem.Analyze(tl); err != nil {
			t.Fatalf("tiled program fails sem: %v", err)
		}
	}
}

func TestFusePreservesSemantics(t *testing.T) {
	src := `
program p
  integer i, n
  parameter (n = 64)
  real a(64), b(64), c(64)
  do i = 1, n
    a(i) = real(i)
  end do
  do i = 1, n
    c(i) = a(i) * 2.0
  end do
end
`
	p := parse(t, src)
	ref := runValues(t, p, "c", nil)
	f, err := Fuse(p, Path{0})
	if err != nil {
		t.Fatal(err)
	}
	got := runValues(t, f, "c", nil)
	sameValues(t, ref, got, "fuse")
	if len(f.Body) != 1 {
		t.Errorf("fused body: %d stmts", len(f.Body))
	}
}

func TestFuseIllegal(t *testing.T) {
	src := `
program p
  integer i, n
  parameter (n = 64)
  real a(65), c(64)
  do i = 1, n
    a(i) = real(i)
  end do
  do i = 1, n
    c(i) = a(i+1) * 2.0
  end do
end
`
	p := parse(t, src)
	if _, err := Fuse(p, Path{0}); err == nil {
		t.Error("backward fusion must be rejected")
	}
}

func TestMovesEnumeration(t *testing.T) {
	p := parse(t, `
program p
  integer i, j, n
  parameter (n = 32)
  real a(32,32), b(32)
  do i = 1, n
    do j = 1, n
      a(i,j) = 1.0
    end do
  end do
  do i = 1, n
    b(i) = 2.0
  end do
end
`)
	opt := SearchOptions{}
	opt.defaults()
	moves := Moves(p, opt)
	kinds := map[string]int{}
	for _, m := range moves {
		kinds[m.Kind]++
	}
	if kinds["unroll"] == 0 || kinds["interchange"] == 0 || kinds["tile"] == 0 {
		t.Errorf("move kinds: %v", kinds)
	}
}

func TestSearchImprovesDaxpy(t *testing.T) {
	p := parse(t, daxpySrc)
	res, err := SearchCtx(context.Background(), p, SearchOptions{
		Machine:  machine.NewPOWER1(),
		MaxNodes: 20,
		MaxDepth: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestCost > res.InitialCost {
		t.Errorf("search worsened cost: %v → %v", res.InitialCost, res.BestCost)
	}
	if res.Explored == 0 {
		t.Error("nothing explored")
	}
	// The best program must still compute the same values.
	ref := runValues(t, p, "y", nil)
	got := runValues(t, res.Best, "y", nil)
	sameValues(t, ref, got, "search-best")
}

func TestSearchSharesSegmentCache(t *testing.T) {
	p := parse(t, daxpySrc)
	res, err := SearchCtx(context.Background(), p, SearchOptions{
		Machine:  machine.NewPOWER1(),
		MaxNodes: 15,
		MaxDepth: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHits == 0 {
		t.Errorf("incremental update never hit the cache (hits=%d misses=%d)", res.CacheHits, res.CacheMisses)
	}
}

func TestApplyUnknownMove(t *testing.T) {
	p := parse(t, daxpySrc)
	if _, err := Apply(p, Move{Kind: "banana"}); err == nil {
		t.Error("unknown move accepted")
	}
}

func TestPathErrors(t *testing.T) {
	p := parse(t, daxpySrc)
	if _, err := Unroll(p, Path{5}, 2); err == nil {
		t.Error("bad path accepted")
	}
	if _, err := Unroll(p, Path{0}, 1); err == nil {
		t.Error("factor 1 accepted")
	}
	if _, err := loopAt(p, Path{}); err == nil {
		t.Error("empty path accepted")
	}
}

func TestTransformedProgramsStillPrint(t *testing.T) {
	p := parse(t, daxpySrc)
	u, err := Unroll(p, Path{0}, 4)
	if err != nil {
		t.Fatal(err)
	}
	out := source.PrintProgram(u)
	if _, err := source.Parse(out); err != nil {
		t.Errorf("unrolled program does not re-parse: %v\n%s", err, out)
	}
}

func TestDistributePreservesSemantics(t *testing.T) {
	src := `
program p
  integer i, n
  parameter (n = 64)
  real a(64), b(64), c(64)
  do i = 1, n
    a(i) = real(i) * 2.0
    c(i) = a(i) + 1.0
  end do
end
`
	p := parse(t, src)
	ref := runValues(t, p, "c", nil)
	d, err := Distribute(p, Path{0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Body) != 2 {
		t.Fatalf("body: %d stmts\n%s", len(d.Body), source.PrintProgram(d))
	}
	got := runValues(t, d, "c", nil)
	sameValues(t, ref, got, "distribute")
	// Distribution then fusion round-trips to equivalent values.
	f, err := Fuse(d, Path{0})
	if err != nil {
		t.Fatalf("re-fusion: %v", err)
	}
	got2 := runValues(t, f, "c", nil)
	sameValues(t, ref, got2, "refuse")
}

func TestDistributeIllegalBackwardDep(t *testing.T) {
	// S2 reads a(i+1), which S1 writes at a LATER iteration: after
	// distribution every a(i) write precedes every read — semantics
	// change.
	src := `
program p
  integer i, n
  parameter (n = 63)
  real a(64), c(64)
  do i = 1, n
    a(i) = real(i)
    c(i) = a(i+1) + 1.0
  end do
end
`
	p := parse(t, src)
	if _, err := Distribute(p, Path{0}, 1); err == nil {
		t.Error("backward-dependence distribution accepted")
	}
}

func TestDistributeBadCut(t *testing.T) {
	p := parse(t, daxpySrc)
	if _, err := Distribute(p, Path{0}, 0); err == nil {
		t.Error("cut 0 accepted")
	}
	if _, err := Distribute(p, Path{0}, 5); err == nil {
		t.Error("out-of-range cut accepted")
	}
}

func TestMovesIncludeDistribute(t *testing.T) {
	p := parse(t, `
program p
  integer i, n
  parameter (n = 16)
  real a(16), b(16)
  do i = 1, n
    a(i) = 1.0
    b(i) = 2.0
  end do
end
`)
	opt := SearchOptions{}
	opt.defaults()
	found := false
	for _, m := range Moves(p, opt) {
		if m.Kind == "distribute" {
			found = true
		}
	}
	if !found {
		t.Error("distribute move not proposed")
	}
}
