package symexpr

import (
	"fmt"
	"math/big"
	"sync"
)

// maxSumDegree bounds the degree of the summand supported by SumOver.
// Performance expressions of real loop nests rarely exceed degree 4–6;
// Bernoulli numbers are tabulated well past that.
const maxSumDegree = 16

// bernoulli returns the Bernoulli numbers B_0..B_n (with B_1 = +1/2,
// the "second" convention, which makes Faulhaber's formula
//
//	Σ_{k=1}^{N} k^m = 1/(m+1) Σ_{j=0}^{m} C(m+1, j) B_j N^{m+1−j}
//
// come out directly).
func bernoulli(n int) []*big.Rat {
	b := make([]*big.Rat, n+1)
	// Compute with B_1 = −1/2 via the standard recurrence, then flip.
	for m := 0; m <= n; m++ {
		// B_m = −1/(m+1) Σ_{j=0}^{m−1} C(m+1, j) B_j, B_0 = 1.
		if m == 0 {
			b[0] = big.NewRat(1, 1)
			continue
		}
		sum := new(big.Rat)
		for j := 0; j < m; j++ {
			c := new(big.Rat).SetInt(binomial(m+1, j))
			sum.Add(sum, c.Mul(c, b[j]))
		}
		b[m] = sum.Neg(sum)
		b[m].Quo(b[m], big.NewRat(int64(m+1), 1))
	}
	if n >= 1 {
		b[1] = big.NewRat(1, 2)
	}
	return b
}

func binomial(n, k int) *big.Int {
	return new(big.Int).Binomial(int64(n), int64(k))
}

// faulhaber returns the polynomial F_m(N) = Σ_{k=1}^{N} k^m expressed in
// the variable nv. F_0(N) = N.
func faulhaber(m int, nv Var) Poly {
	if m < 0 || m > maxSumDegree {
		panic(fmt.Sprintf("symexpr: faulhaber degree %d out of range", m))
	}
	b := bernoulli(m)
	out := Poly{}
	inv := new(big.Rat).SetInt64(int64(m + 1))
	for j := 0; j <= m; j++ {
		c := new(big.Rat).SetInt(binomial(m+1, j))
		c.Mul(c, b[j])
		c.Quo(c, inv)
		f, _ := c.Float64()
		out = out.addTerm(f, Monomial{nv: m + 1 - j})
	}
	return out
}

// sumVar is the placeholder variable the tabulated Faulhaber
// polynomials are written in.
const sumVar = Var("__N")

// faulhaberTab holds F_0..F_maxSumDegree in sumVar, each computed on
// first use and shared read-only afterwards (Poly operations never
// mutate their receiver).
var faulhaberTab struct {
	once [maxSumDegree + 1]sync.Once
	poly [maxSumDegree + 1]Poly
}

// faulhaberN returns the tabulated F_m(sumVar).
func faulhaberN(m int) Poly {
	faulhaberTab.once[m].Do(func() { faulhaberTab.poly[m] = faulhaber(m, sumVar) })
	return faulhaberTab.poly[m]
}

// SumOver computes Σ_{v = lb}^{ub} p symbolically, where p is a
// polynomial in v (no negative powers of v) whose coefficients may
// involve other variables, and lb, ub are polynomials not involving v.
// The result is exact for every integer lb ≤ ub when the bound
// polynomials take integer values; when ub < lb the closed form yields
// the usual "empty sum telescopes" value, which callers should guard if
// they care about empty loops.
//
// This is the engine behind the paper's loop-cost aggregation
// C(do k = lb, ub {B}) = … + Σ_k C(B(k)) (§2.4.1).
func SumOver(p Poly, v Var, lb, ub Poly) (Poly, error) {
	if !p.IsPolynomialIn(v) {
		return Poly{}, fmt.Errorf("symexpr: SumOver: summand has negative powers of %q", v)
	}
	for _, bound := range []Poly{lb, ub} {
		if bound.Degree(v) != 0 || bound.MinDegree(v) != 0 {
			return Poly{}, fmt.Errorf("symexpr: SumOver: bound involves the summation variable %q", v)
		}
	}
	deg := p.Degree(v)
	if deg > maxSumDegree {
		return Poly{}, fmt.Errorf("symexpr: SumOver: degree %d exceeds limit %d", deg, maxSumDegree)
	}
	lbm1 := lb.AddConst(-1)
	out := Poly{}
	for e := 0; e <= deg; e++ {
		coeff := p.CoeffOf(v, e)
		if coeff.IsZero() {
			continue
		}
		// Σ_{k=lb}^{ub} k^e = F_e(ub) − F_e(lb−1)
		f := faulhaberN(e)
		fub, err := f.Substitute(sumVar, ub)
		if err != nil {
			return Poly{}, err
		}
		flb, err := f.Substitute(sumVar, lbm1)
		if err != nil {
			return Poly{}, err
		}
		out = out.Add(coeff.Mul(fub.Sub(flb)))
	}
	return out, nil
}

// SumOverStep computes Σ_{v = lb, lb+step, …, ≤ub} p for a positive
// constant integer step. It substitutes v = lb + step·j and sums j from
// 0 to T−1 where T = floor((ub−lb)/step)+1. Because floor is not
// polynomial, T must be representable: either (ub−lb) is a constant, or
// the caller accepts the rational approximation (ub−lb+step)/step, which
// is exact whenever step divides (ub−lb). The returned trip-count
// polynomial is also given back for reuse.
func SumOverStep(p Poly, v Var, lb, ub Poly, step int) (sum, trips Poly, err error) {
	if step <= 0 {
		return Poly{}, Poly{}, fmt.Errorf("symexpr: SumOverStep: step %d must be positive", step)
	}
	if step == 1 {
		s, err := SumOver(p, v, lb, ub)
		if err != nil {
			return Poly{}, Poly{}, err
		}
		return s, ub.Sub(lb).AddConst(1), nil
	}
	span := ub.Sub(lb)
	if c, ok := span.IsConst(); ok {
		t := int64(c)/int64(step) + 1
		if c < 0 {
			t = 0
		}
		trips = Const(float64(t))
	} else {
		trips = span.AddConst(float64(step)).Scale(1 / float64(step))
	}
	// v = lb + step*j
	j := Var("__j")
	vsub := lb.Add(NewVar(j).Scale(float64(step)))
	pj, err := p.Substitute(v, vsub)
	if err != nil {
		return Poly{}, Poly{}, err
	}
	s, err := SumOver(pj, j, Const(0), trips.AddConst(-1))
	if err != nil {
		return Poly{}, Poly{}, err
	}
	return s, trips, nil
}

// TripCount returns the symbolic iteration count of a loop
// do v = lb, ub, step (step a positive integer constant):
// floor((ub−lb)/step)+1, using the rational form when bounds are
// symbolic.
func TripCount(lb, ub Poly, step int) Poly {
	if step <= 0 {
		step = 1
	}
	span := ub.Sub(lb)
	if c, ok := span.IsConst(); ok {
		if c < 0 {
			return Zero()
		}
		return Const(float64(int64(c)/int64(step) + 1))
	}
	return span.AddConst(float64(step)).Scale(1 / float64(step))
}
