package deps

import (
	"testing"

	"perfpredict/internal/sem"
	"perfpredict/internal/source"
)

// nest parses a program whose body is a perfect loop nest and returns
// the analysis inputs.
func nest(t *testing.T, src string) (*sem.Table, []*source.DoLoop, []source.Stmt) {
	t.Helper()
	p, err := source.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	tbl, err := sem.Analyze(p)
	if err != nil {
		t.Fatalf("sem: %v", err)
	}
	var loops []*source.DoLoop
	body := p.Body
	for len(body) == 1 {
		l, ok := body[0].(*source.DoLoop)
		if !ok {
			break
		}
		loops = append(loops, l)
		body = l.Body
	}
	return tbl, loops, body
}

func analyze(t *testing.T, src string) []Dependence {
	tbl, loops, body := nest(t, src)
	return Analyze(tbl, loops, body)
}

func TestIndependentLoop(t *testing.T) {
	ds := analyze(t, `
program p
  integer i, n
  real a(100), b(100)
  do i = 1, n
    a(i) = b(i) + 1.0
  end do
end
`)
	// Only dependences on a or b between reads/writes; b is read-only,
	// a is written once — no pair qualifies.
	if len(ds) != 0 {
		t.Errorf("deps: %v", ds)
	}
}

func TestRecurrenceDistanceOne(t *testing.T) {
	ds := analyze(t, `
program p
  integer i, n
  real a(100)
  do i = 2, n
    a(i) = a(i-1) + 1.0
  end do
end
`)
	if len(ds) != 1 {
		t.Fatalf("deps: %v", ds)
	}
	d := ds[0]
	if d.Kind != Flow {
		t.Errorf("kind = %v", d.Kind)
	}
	if d.Directions[0] != DirLT || !d.Known[0] || d.Distances[0] != 1 {
		t.Errorf("dep: %+v", d)
	}
	if !d.CarriedBy(0) {
		t.Error("should be carried by the loop")
	}
}

func TestAntiDependence(t *testing.T) {
	ds := analyze(t, `
program p
  integer i, n
  real a(100)
  do i = 1, n - 1
    a(i) = a(i+1) + 1.0
  end do
end
`)
	if len(ds) != 1 {
		t.Fatalf("deps: %v", ds)
	}
	// Read a(i+1) then write a(i) at a later iteration: anti, distance 1.
	if ds[0].Kind != Anti {
		t.Errorf("kind = %v (%+v)", ds[0].Kind, ds[0])
	}
	if ds[0].Directions[0] != DirLT {
		t.Errorf("dir = %c", ds[0].Directions[0])
	}
}

func TestProvablyIndependentOffset(t *testing.T) {
	// a(2i) vs a(2i+1): parity differs, strong-SIV non-integer distance.
	ds := analyze(t, `
program p
  integer i, n
  real a(200)
  do i = 1, n
    a(2*i) = a(2*i+1) + 1.0
  end do
end
`)
	if len(ds) != 0 {
		t.Errorf("parity-distinct refs reported dependent: %v", ds)
	}
}

func TestZIVDistinctConstants(t *testing.T) {
	ds := analyze(t, `
program p
  integer i, n
  real a(100)
  do i = 1, n
    a(1) = a(2) + 1.0
  end do
end
`)
	if len(ds) != 0 {
		t.Errorf("a(1) vs a(2) reported dependent: %v", ds)
	}
}

func TestZIVSameConstantOutput(t *testing.T) {
	ds := analyze(t, `
program p
  integer i, n
  real a(100), b(100)
  do i = 1, n
    a(1) = b(i)
  end do
end
`)
	// a(1) written every iteration: output dependence, '=' direction?
	// There is only one write ref, so no pair. Use two writes:
	ds = analyze(t, `
program p
  integer i, n
  real a(100), b(100)
  do i = 1, n
    a(1) = b(i)
    a(1) = b(i) + 1.0
  end do
end
`)
	found := false
	for _, d := range ds {
		if d.Kind == Output && d.Array == "a" {
			found = true
			if d.Directions[0] != DirEQ {
				t.Errorf("output dep dir: %+v", d)
			}
		}
	}
	if !found {
		t.Errorf("missing output dependence: %v", ds)
	}
}

func TestTwoDimNest(t *testing.T) {
	ds := analyze(t, `
program p
  integer i, j, n
  real a(100,100)
  do i = 2, n
    do j = 2, n
      a(i,j) = a(i-1,j) + a(i,j-1)
    end do
  end do
end
`)
	// Two flow deps: (1,0) carried by i; (0,1) carried by j.
	if len(ds) != 2 {
		t.Fatalf("deps: %v", ds)
	}
	var sawI, sawJ bool
	for _, d := range ds {
		if d.Distances[0] == 1 && d.Distances[1] == 0 {
			sawI = true
			if !d.CarriedBy(0) {
				t.Error("(1,0) not carried by outer")
			}
		}
		if d.Distances[0] == 0 && d.Distances[1] == 1 {
			sawJ = true
			if !d.CarriedBy(1) {
				t.Error("(0,1) not carried by inner")
			}
		}
	}
	if !sawI || !sawJ {
		t.Errorf("missing distances: %v", ds)
	}
}

func TestMIVGCDIndependent(t *testing.T) {
	// a(2i) vs a(2j+1): gcd 2 does not divide 1 → independent.
	ds := analyze(t, `
program p
  integer i, j, n
  real a(400)
  do i = 1, n
    do j = 1, n
      a(2*i) = a(2*j+1) + 1.0
    end do
  end do
end
`)
	if len(ds) != 0 {
		t.Errorf("GCD-independent refs reported dependent: %v", ds)
	}
}

func TestMIVConservativeStar(t *testing.T) {
	ds := analyze(t, `
program p
  integer i, j, n
  real a(400)
  do i = 1, n
    do j = 1, n
      a(i+j) = a(i+j+1) + 1.0
    end do
  end do
end
`)
	if len(ds) == 0 {
		t.Fatal("expected conservative dependence")
	}
	hasStar := false
	for _, dir := range ds[0].Directions {
		if dir == DirStar {
			hasStar = true
		}
	}
	if !hasStar {
		t.Errorf("expected '*' direction: %+v", ds[0])
	}
}

func TestNonAffineConservative(t *testing.T) {
	ds := analyze(t, `
program p
  integer i, n
  integer idx(100)
  real a(100)
  do i = 1, n
    a(idx(i)) = a(i) + 1.0
  end do
end
`)
	if len(ds) == 0 {
		t.Fatal("indirect subscript must be conservatively dependent")
	}
	if ds[0].Directions[0] != DirStar {
		t.Errorf("dir: %+v", ds[0])
	}
}

func TestSymbolicOffsetSharedCancel(t *testing.T) {
	// a(i+k) vs a(i+k): same symbolic offset cancels → '=' dependence.
	ds := analyze(t, `
program p
  integer i, k, n
  real a(200), b(200)
  do i = 1, n
    a(i+k) = a(i+k) * 2.0
  end do
end
`)
	if len(ds) != 1 {
		t.Fatalf("deps: %v", ds)
	}
	if ds[0].Directions[0] != DirEQ {
		t.Errorf("dir: %+v", ds[0])
	}
	if !ds[0].LoopIndependent() {
		t.Error("should be loop independent")
	}
}

func TestInterchangeLegal(t *testing.T) {
	// Jacobi-like: all deps on b are input; a written with '=' dirs.
	ds := analyze(t, `
program p
  integer i, j, n
  real a(100,100), b(100,100)
  do j = 2, n
    do i = 2, n
      a(i,j) = b(i-1,j) + b(i+1,j)
    end do
  end do
end
`)
	if !InterchangeLegal(ds, 0, 1) {
		t.Error("independent nest must be interchangeable")
	}
	// Wavefront: (1,-1) distance blocks interchange.
	ds2 := analyze(t, `
program p
  integer i, j, n
  real a(100,100)
  do i = 2, n
    do j = 1, n - 1
      a(i,j) = a(i-1,j+1) + 1.0
    end do
  end do
end
`)
	if InterchangeLegal(ds2, 0, 1) {
		t.Errorf("(1,-1) nest interchanged illegally: %v", ds2)
	}
}

func TestInterchangeStarBlocked(t *testing.T) {
	ds := analyze(t, `
program p
  integer i, j, n
  real a(400)
  do i = 1, n
    do j = 1, n
      a(i+j) = a(i+j+1) + 1.0
    end do
  end do
end
`)
	if InterchangeLegal(ds, 0, 1) {
		t.Error("'*' directions must block interchange")
	}
}

func TestFusionLegal(t *testing.T) {
	src := `
program p
  integer i, n
  real a(100), b(100), c(100)
  do i = 1, n
    a(i) = b(i) + 1.0
  end do
  do i = 1, n
    c(i) = a(i) * 2.0
  end do
end
`
	p, err := source.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := sem.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	l1 := p.Body[0].(*source.DoLoop)
	l2 := p.Body[1].(*source.DoLoop)
	if !FusionLegal(tbl, l1, l2) {
		t.Error("producer-consumer same-iteration fusion should be legal")
	}
}

func TestFusionIllegalBackward(t *testing.T) {
	src := `
program p
  integer i, n
  real a(101), b(100), c(100)
  do i = 1, n
    a(i) = b(i) + 1.0
  end do
  do i = 1, n
    c(i) = a(i+1) * 2.0
  end do
end
`
	p, _ := source.Parse(src)
	tbl, err := sem.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	l1 := p.Body[0].(*source.DoLoop)
	l2 := p.Body[1].(*source.DoLoop)
	if FusionLegal(tbl, l1, l2) {
		t.Error("fusion reversing a(i+1) consumption must be illegal")
	}
}

func TestFusionMismatchedHeaders(t *testing.T) {
	src := `
program p
  integer i, n
  real a(100), b(100)
  do i = 1, n
    a(i) = 1.0
  end do
  do i = 2, n
    b(i) = 2.0
  end do
end
`
	p, _ := source.Parse(src)
	tbl, _ := sem.Analyze(p)
	if FusionLegal(tbl, p.Body[0].(*source.DoLoop), p.Body[1].(*source.DoLoop)) {
		t.Error("different bounds must block fusion")
	}
}

func TestCarriedDeps(t *testing.T) {
	ds := analyze(t, `
program p
  integer i, j, n
  real a(100,100)
  do i = 2, n
    do j = 2, n
      a(i,j) = a(i-1,j) + a(i,j-1)
    end do
  end do
end
`)
	outer := CarriedDeps(ds, 0)
	inner := CarriedDeps(ds, 1)
	if len(outer) != 1 || len(inner) != 1 {
		t.Errorf("carried: outer=%v inner=%v", outer, inner)
	}
}

func TestDependenceString(t *testing.T) {
	ds := analyze(t, `
program p
  integer i, n
  real a(100)
  do i = 2, n
    a(i) = a(i-1) + 1.0
  end do
end
`)
	if got, want := ds[0].String(), "flow dep on a: a(i) -> a((i-1)) (<)"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestRankMismatchConservative(t *testing.T) {
	// Same array referenced with different ranks (would be a semantic
	// error normally, but the analysis must stay conservative): force
	// it through the conservative all-star path via refs in calls.
	ds := analyze(t, `
program p
  integer i, j, n
  real a(400)
  do i = 1, n
    do j = 1, n
      a(i*j) = a(i*j+i) + 1.0
    end do
  end do
end
`)
	if len(ds) == 0 {
		t.Fatal("nonlinear subscripts should be conservatively dependent")
	}
	for _, d := range ds {
		if d.String() == "" {
			t.Error("empty dependence string")
		}
	}
}

func TestNegatedSubscripts(t *testing.T) {
	// a(-i+n) vs a(i): coefficients differ in sign → weak SIV → star.
	ds := analyze(t, `
program p
  integer i, n
  real a(200)
  do i = 1, n
    a(i) = a(n - i) + 1.0
  end do
end
`)
	if len(ds) == 0 {
		t.Fatal("reversal must be conservatively dependent")
	}
	if ds[0].Directions[0] != DirStar {
		t.Errorf("dir: %+v", ds[0])
	}
}

func TestScaledCoefficientDistance(t *testing.T) {
	// a(2i) vs a(2i-4): strong SIV with a=2, offset 4 → distance 2.
	ds := analyze(t, `
program p
  integer i, n
  real a(400)
  do i = 3, n
    a(2*i) = a(2*i - 4) + 1.0
  end do
end
`)
	if len(ds) != 1 {
		t.Fatalf("deps: %v", ds)
	}
	if !ds[0].Known[0] || ds[0].Distances[0] != 2 {
		t.Errorf("distance: %+v", ds[0])
	}
}

func TestRefsInsideConditionsAndCalls(t *testing.T) {
	// References inside IF conditions, call arguments and loop bounds
	// are collected.
	ds := analyze(t, `
program p
  integer i, n
  real a(100), b(100)
  do i = 2, n
    if (a(i-1) .gt. 0.0) then
      a(i) = b(i)
    end if
  end do
end
`)
	found := false
	for _, d := range ds {
		if d.Array == "a" && d.Kind == Flow {
			found = true
		}
	}
	if !found {
		t.Errorf("flow dep through condition missing: %v", ds)
	}
}

func TestUnknownCoefficientTimesVar(t *testing.T) {
	// a(k*i): non-constant coefficient → non-affine → conservative.
	ds := analyze(t, `
program p
  integer i, k, n
  real a(10000)
  do i = 1, n
    a(k*i) = a(k*i+1) + 1.0
  end do
end
`)
	if len(ds) == 0 {
		t.Fatal("unknown-coefficient subscripts must stay dependent")
	}
}
