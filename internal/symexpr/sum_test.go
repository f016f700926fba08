package symexpr

import (
	"math/big"
	"reflect"
	"testing"
)

func TestBernoulli(t *testing.T) {
	b := bernoulli(8)
	want := []*big.Rat{
		big.NewRat(1, 1), big.NewRat(1, 2), big.NewRat(1, 6),
		big.NewRat(0, 1), big.NewRat(-1, 30), big.NewRat(0, 1),
		big.NewRat(1, 42), big.NewRat(0, 1), big.NewRat(-1, 30),
	}
	for i, w := range want {
		if b[i].Cmp(w) != 0 {
			t.Errorf("B_%d = %v, want %v", i, b[i], w)
		}
	}
}

func TestFaulhaberSmall(t *testing.T) {
	n := Var("N")
	// F_1(N) = N(N+1)/2
	f1 := faulhaber(1, n)
	want1 := NewVar(n).Pow(2).Scale(0.5).Add(NewVar(n).Scale(0.5))
	if !f1.Equal(want1, 1e-12) {
		t.Errorf("F_1 = %v", f1)
	}
	// F_2(N) = N(N+1)(2N+1)/6
	f2 := faulhaber(2, n)
	approx(t, f2.MustEval(map[Var]float64{n: 10}), 385, 1e-6, "F_2(10)")
	// F_0(N) = N
	if !faulhaber(0, n).Equal(NewVar(n), 1e-12) {
		t.Error("F_0 != N")
	}
}

// bruteSum evaluates Σ_{k=lb}^{ub} p(k, extra) numerically.
func bruteSum(t *testing.T, p Poly, v Var, lb, ub int, extra map[Var]float64) float64 {
	t.Helper()
	total := 0.0
	for k := lb; k <= ub; k++ {
		assign := cloneAssign(extra)
		assign[v] = float64(k)
		val, err := p.Eval(assign)
		if err != nil {
			t.Fatal(err)
		}
		total += val
	}
	return total
}

func TestSumOverConstantBounds(t *testing.T) {
	k := Var("k")
	cases := []struct {
		name   string
		p      Poly
		lb, ub int
	}{
		{"const", Const(3), 1, 10},
		{"linear", NewVar(k), 1, 100},
		{"quad", NewVar(k).Pow(2).Add(NewVar(k)).AddConst(1), 5, 37},
		{"cubic", NewVar(k).Pow(3).Scale(2).Sub(NewVar(k).Scale(4)), 0, 20},
		{"deg5", NewVar(k).Pow(5), 1, 12},
		{"negative-range", NewVar(k).Pow(2), -7, 7},
		{"single", NewVar(k).Pow(3), 4, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := SumOver(tc.p, k, Const(float64(tc.lb)), Const(float64(tc.ub)))
			if err != nil {
				t.Fatal(err)
			}
			got, ok := s.IsConst()
			if !ok {
				t.Fatalf("sum not constant: %v", s)
			}
			want := bruteSum(t, tc.p, k, tc.lb, tc.ub, nil)
			approx(t, got, want, 1e-6*(1+want), "sum")
		})
	}
}

func TestSumOverSymbolicBound(t *testing.T) {
	k, n := Var("k"), Var("n")
	// Σ_{k=1}^{n} k = n(n+1)/2
	s, err := SumOver(NewVar(k), k, Const(1), NewVar(n))
	if err != nil {
		t.Fatal(err)
	}
	want := NewVar(n).Pow(2).Scale(0.5).Add(NewVar(n).Scale(0.5))
	if !s.Equal(want, 1e-9) {
		t.Errorf("Σk = %v, want %v", s, want)
	}
	// Triangular nest: Σ_{k=1}^{n} (n − k) = n(n−1)/2
	body := NewVar(n).Sub(NewVar(k))
	s2, err := SumOver(body, k, Const(1), NewVar(n))
	if err != nil {
		t.Fatal(err)
	}
	for _, nv := range []float64{1, 2, 10, 55} {
		got := s2.MustEval(map[Var]float64{n: nv})
		approx(t, got, nv*(nv-1)/2, 1e-6, "triangular")
	}
}

func TestSumOverSymbolicCoefficients(t *testing.T) {
	k, n, m := Var("k"), Var("n"), Var("m")
	// Σ_{k=1}^{n} (m·k + 3) = m·n(n+1)/2 + 3n
	body := NewVar(m).Mul(NewVar(k)).AddConst(3)
	s, err := SumOver(body, k, Const(1), NewVar(n))
	if err != nil {
		t.Fatal(err)
	}
	got := s.MustEval(map[Var]float64{n: 10, m: 4})
	approx(t, got, 4*55+30, 1e-6, "symbolic coeff sum")
}

func TestSumOverErrors(t *testing.T) {
	k := Var("k")
	if _, err := SumOver(Term(1, Monomial{k: -1}), k, Const(1), Const(10)); err == nil {
		t.Error("expected error for 1/k summand")
	}
	if _, err := SumOver(NewVar(k), k, NewVar(k), Const(10)); err == nil {
		t.Error("expected error for bound containing summation var")
	}
}

func TestSumOverStep(t *testing.T) {
	k := Var("k")
	p := NewVar(k).Pow(2)
	// Σ_{k=1,3,5,...,99} k²
	s, trips, err := SumOverStep(p, k, Const(1), Const(99), 2)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for i := 1; i <= 99; i += 2 {
		want += float64(i * i)
	}
	got, _ := s.IsConst()
	approx(t, got, want, 1e-6, "stepped sum")
	tc, _ := trips.IsConst()
	approx(t, tc, 50, 1e-9, "trip count")
}

func TestSumOverStepSymbolic(t *testing.T) {
	k, n := Var("k"), Var("n")
	// Σ_{k=1}^{n step 4} 1 with n multiple-of-4 offset: trips = (n−1+4)/4
	s, trips, err := SumOverStep(Const(1), k, Const(1), NewVar(n), 4)
	if err != nil {
		t.Fatal(err)
	}
	// At n = 13: iterations k = 1,5,9,13 → 4
	approx(t, trips.MustEval(map[Var]float64{n: 13}), 4, 1e-9, "symbolic trips")
	approx(t, s.MustEval(map[Var]float64{n: 13}), 4, 1e-9, "symbolic sum")
}

func TestTripCount(t *testing.T) {
	if c, _ := TripCount(Const(1), Const(10), 1).IsConst(); c != 10 {
		t.Errorf("TripCount(1,10,1) = %v", c)
	}
	if c, _ := TripCount(Const(1), Const(10), 3).IsConst(); c != 4 {
		t.Errorf("TripCount(1,10,3) = %v", c) // 1,4,7,10
	}
	if c, _ := TripCount(Const(10), Const(1), 1).IsConst(); c != 0 {
		t.Errorf("TripCount empty = %v", c)
	}
	n := Var("n")
	sym := TripCount(Const(1), NewVar(n), 1)
	approx(t, sym.MustEval(map[Var]float64{n: 42}), 42, 1e-9, "symbolic trip count")
}

func TestNestedSum(t *testing.T) {
	// Σ_{i=1}^{n} Σ_{j=1}^{i} 1 = n(n+1)/2 (triangular double loop)
	i, j, n := Var("i"), Var("j"), Var("n")
	inner, err := SumOver(Const(1), j, Const(1), NewVar(i))
	if err != nil {
		t.Fatal(err)
	}
	outer, err := SumOver(inner, i, Const(1), NewVar(n))
	if err != nil {
		t.Fatal(err)
	}
	approx(t, outer.MustEval(map[Var]float64{n: 100}), 5050, 1e-6, "nested sum")
}

// TestFaulhaberTable pins the tabulated polynomials SumOver reads to a
// fresh computation, term for term and bit for bit, at every degree.
func TestFaulhaberTable(t *testing.T) {
	for m := 0; m <= maxSumDegree; m++ {
		got, want := faulhaberN(m).Terms(), faulhaber(m, "__N").Terms()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("F_%d: table %v, fresh %v", m, faulhaberN(m), faulhaber(m, "__N"))
		}
	}
	// Reading the table twice must hand back the same, unmodified terms
	// even after a SumOver has substituted into them.
	n := Var("n")
	if _, err := SumOver(NewVar("i").Pow(3), "i", Const(1), NewVar(n)); err != nil {
		t.Fatal(err)
	}
	if got, want := faulhaberN(3).Terms(), faulhaber(3, "__N").Terms(); !reflect.DeepEqual(got, want) {
		t.Errorf("F_3 changed after use: %v", faulhaberN(3))
	}
}
