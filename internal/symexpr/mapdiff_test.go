package symexpr

import (
	"math"
	"math/rand"
	"testing"
)

// pair carries one expression in both representations: the package's
// slice-backed Poly and the map-backed reference of mapref_test.go.
type pair struct {
	p Poly
	r refPoly
}

// diffGen builds random expression trees, applying every operation to
// both representations with the same operands.
type diffGen struct {
	t      *testing.T
	rnd    *rand.Rand
	dyadic bool // integer and dyadic coefficients: exact arithmetic
}

var diffVars = []Var{"k", "m", "n", "p"}

func (g *diffGen) v() Var { return diffVars[g.rnd.Intn(len(diffVars))] }

// coeff returns a nonzero coefficient: a multiple of 1/4 in [-4, 4] in
// dyadic mode, otherwise a real of magnitude in [0.1, 10).
func (g *diffGen) coeff() float64 {
	if g.dyadic {
		k := g.rnd.Intn(32) - 16
		if k >= 0 {
			k++
		}
		return float64(k) / 4
	}
	c := math.Pow(10, g.rnd.Float64()*2-1)
	if g.rnd.Intn(2) == 0 {
		c = -c
	}
	return c
}

func (g *diffGen) leaf() pair {
	switch c := g.coeff(); g.rnd.Intn(3) {
	case 0:
		return pair{Const(c), refConst(c)}
	case 1:
		v := g.v()
		return pair{NewVar(v), refNewVar(v)}
	default:
		m := Monomial{}
		for _, v := range diffVars {
			if g.rnd.Intn(2) == 0 {
				m[v] = g.rnd.Intn(5) - 1 // -1..3; 0 entries included
			}
		}
		return pair{Term(c, m), refTerm(c, refMono(m))}
	}
}

// bound returns a loop bound that does not involve v.
func (g *diffGen) bound(v Var) pair {
	c := float64(g.rnd.Intn(7) - 2)
	if w := g.v(); w != v && g.rnd.Intn(2) == 0 {
		return pair{NewVar(w).AddConst(c), refNewVar(w).AddConst(c)}
	}
	return pair{Const(c), refConst(c)}
}

// tooBig reports whether x has grown past what the test keeps exact and
// cheap: many terms, large coefficients or high degrees.
func tooBig(x Poly) bool {
	if len(x.terms) > 24 {
		return true
	}
	for _, t := range x.terms {
		if math.Abs(t.coeff) > 1<<24 {
			return true
		}
		for _, e := range t.mono.ves {
			if e.e > 8 || e.e < -4 {
				return true
			}
		}
	}
	return false
}

// errParity reports a mismatch between the two representations' error
// results; the messages may name different terms (the reference visits
// terms in map order), so only presence is compared.
func (g *diffGen) errParity(op string, err, rerr error) bool {
	if (err == nil) != (rerr == nil) {
		g.t.Errorf("%s: error %v, reference error %v", op, err, rerr)
		return false
	}
	return err == nil
}

// tree returns a random expression of the given depth and checks the
// two representations agree at every node.
func (g *diffGen) tree(depth int) pair {
	if depth == 0 {
		return g.leaf()
	}
	a := g.tree(depth - 1)
	var out pair
	op := "leaf"
	switch g.rnd.Intn(10) {
	case 0:
		b := g.tree(depth - 1)
		op, out = "Add", pair{a.p.Add(b.p), a.r.Add(b.r)}
	case 1:
		b := g.tree(depth - 1)
		op, out = "Sub", pair{a.p.Sub(b.p), a.r.Sub(b.r)}
	case 2:
		c := g.coeff()
		op, out = "Scale", pair{a.p.Scale(c), a.r.Scale(c)}
	case 3:
		b := g.tree(depth - 1)
		op, out = "Mul", pair{a.p.Mul(b.p), a.r.Mul(b.r)}
	case 4:
		if a.p.NumTerms() > 3 {
			return a
		}
		n := g.rnd.Intn(4)
		op, out = "Pow", pair{a.p.Pow(n), a.r.Pow(n)}
	case 5:
		v, b := g.v(), g.tree(depth-1)
		if b.p.NumTerms() > 3 {
			return a
		}
		p, err := a.p.Substitute(v, b.p)
		r, rerr := a.r.Substitute(v, b.r)
		if !g.errParity("Substitute", err, rerr) {
			return a
		}
		op, out = "Substitute", pair{p, r}
	case 6:
		v, e := g.v(), g.rnd.Intn(5)-1
		op, out = "CoeffOf", pair{a.p.CoeffOf(v, e), a.r.CoeffOf(v, e)}
	case 7:
		v := g.v()
		op, out = "Derivative", pair{a.p.Derivative(v), a.r.Derivative(v)}
	case 8:
		m := map[Var]Var{}
		for _, v := range diffVars {
			if g.rnd.Intn(3) == 0 {
				m[v] = g.v()
			}
		}
		op, out = "RenameVars", pair{RenameVars(a.p, m), refRenameVars(a.r, m)}
	default:
		v := g.v()
		steps := []int{1, 2, 3}
		if g.dyadic {
			// Faulhaber sums above degree 1 and steps other than powers
			// of two bring in non-dyadic coefficients (1/3, 1/6, …).
			if a.p.Degree(v) > 1 {
				return a
			}
			steps = []int{1, 2, 4}
		}
		lb, ub, step := g.bound(v), g.bound(v), steps[g.rnd.Intn(len(steps))]
		s, trips, err := SumOverStep(a.p, v, lb.p, ub.p, step)
		rs, rtrips, rerr := refSumOverStep(a.r, v, lb.r, ub.r, step)
		if !g.errParity("SumOverStep", err, rerr) {
			return a
		}
		g.check("SumOverStep trips", pair{trips, rtrips})
		op, out = "SumOverStep", pair{s, rs}
	}
	g.check(op, out)
	if tooBig(out.p) {
		return g.leaf()
	}
	return out
}

// check compares the two representations of x: String byte for byte
// in dyadic mode, Eval within 1e-12 of the terms' magnitude otherwise.
func (g *diffGen) check(op string, x pair) {
	g.t.Helper()
	if g.dyadic {
		if s, rs := x.p.String(), x.r.String(); s != rs {
			g.t.Errorf("%s: String %q, reference %q", op, s, rs)
		}
		return
	}
	assign := map[Var]float64{}
	for _, v := range diffVars {
		assign[v] = 1.25 + 1.75*g.rnd.Float64()
	}
	got, err := x.p.Eval(assign)
	want, rerr := x.r.Eval(assign)
	if err != nil || rerr != nil {
		g.t.Errorf("%s: Eval errors %v / %v", op, err, rerr)
		return
	}
	scale := 0.0
	for _, t := range x.p.terms {
		scale += math.Abs(single(t.coeff, t.mono).MustEval(assign))
	}
	if math.Abs(got-want) > 1e-12*math.Max(scale, math.SmallestNonzeroFloat64) {
		g.t.Errorf("%s: Eval %v, reference %v (%s)", op, got, want, x.p)
	}
}

// TestDifferentialAgainstMapReference drives the slice-backed Poly and
// the map-backed reference with the same seeded random expression
// trees: with exact (integer and dyadic) coefficients the rendered
// strings must match byte for byte, and with real coefficients the
// values must agree to rounding.
func TestDifferentialAgainstMapReference(t *testing.T) {
	for _, dyadic := range []bool{true, false} {
		for seed := int64(1); seed <= 300; seed++ {
			g := &diffGen{t: t, rnd: rand.New(rand.NewSource(seed)), dyadic: dyadic}
			g.check("tree", g.tree(4))
			if t.Failed() {
				t.Fatalf("dyadic=%v seed=%d", dyadic, seed)
			}
		}
	}
}

var allocSink Poly

// TestSmallOpsAllocateOnce pins the cost of the operations that build
// or adjust constants: each allocates at most its one term slice.
func TestSmallOpsAllocateOnce(t *testing.T) {
	a, b := Const(2), Const(3)
	p := NewVar("n").Scale(3).AddConst(1)
	for name, f := range map[string]func(){
		"Const":    func() { allocSink = Const(3.5) },
		"Add":      func() { allocSink = a.Add(b) },
		"AddConst": func() { allocSink = p.AddConst(2) },
	} {
		if n := testing.AllocsPerRun(100, f); n > 1 {
			t.Errorf("%s: %v allocations, want at most 1", name, n)
		}
	}
}

// TestInsertionOrderDeterminism builds one polynomial in two insertion
// orders: the stored terms, and so String and Eval to the bit, must
// not depend on the order.
func TestInsertionOrderDeterminism(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	var parts []Poly
	for _, m := range []Monomial{{}, {"n": 1}, {"k": 1}, {"n": 2}, {"k": 1, "n": 1}, {"m": -1}, {"n": 3, "k": -1}, {"p": 1, "m": 2}} {
		parts = append(parts, Term(rnd.Float64()*10-5, m))
	}
	fwd, rev := Zero(), Zero()
	for i := range parts {
		fwd = fwd.Add(parts[i])
		rev = rev.Add(parts[len(parts)-1-i])
	}
	if fwd.String() != rev.String() {
		t.Fatalf("String depends on insertion order: %q vs %q", fwd, rev)
	}
	assign := map[Var]float64{"k": 1.1, "m": 2.3, "n": 3.7, "p": 0.9}
	a, b := fwd.MustEval(assign), rev.MustEval(assign)
	if math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("Eval depends on insertion order: %v vs %v", a, b)
	}
	for i := 0; i < 20; i++ {
		if c := fwd.MustEval(assign); math.Float64bits(c) != math.Float64bits(a) {
			t.Fatalf("Eval is not repeatable: %v vs %v", c, a)
		}
	}
}
