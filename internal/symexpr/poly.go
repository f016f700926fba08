// Package symexpr implements the symbolic performance expressions of
// Wang (PLDI 1994), §2.4 and §3: multivariate Laurent polynomials over
// program unknowns (loop bounds, branch probabilities, problem sizes),
// with closed-form summation, root finding, sign-region analysis,
// symbolic comparison, term dropping, and sensitivity analysis.
//
// A performance expression is a Poly. Its variables are the unknowns the
// compiler could not resolve; estimating them is delayed as long as
// possible, and many optimization decisions can be made without ever
// guessing them (see Compare and SignRegions).
package symexpr

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// Var names a symbolic unknown, e.g. "n", "k", or "p_true".
type Var string

// Monomial is a product of variables raised to integer powers.
// Negative exponents are permitted (Laurent terms such as 1/x^3,
// which §3.1 of the paper drops when dominated). It is the form Term
// takes and Terms reports; a Poly stores interned monomials instead
// (see intern.go).
type Monomial map[Var]int

// Poly is a multivariate Laurent polynomial with float64 coefficients.
// The zero value is the zero polynomial. Poly values are immutable:
// all operations return new polynomials, and an operation whose result
// equals an operand may return that operand's terms unchanged.
type Poly struct {
	// terms holds one entry per distinct monomial, in the order String
	// prints them: total degree descending, then canonical key
	// ascending. Coefficients are never below coeffEps in magnitude.
	terms []term
}

type term struct {
	coeff float64
	mono  *monoRec
}

// Zero returns the zero polynomial.
func Zero() Poly { return Poly{} }

// Const returns the constant polynomial c.
func Const(c float64) Poly { return single(c, one) }

// NewVar returns the polynomial consisting of the single variable v.
func NewVar(v Var) Poly { return single(1, internVEs([]ve{{v, 1}})) }

// Term returns coeff * Π v_i^e_i.
func Term(coeff float64, mono Monomial) Poly {
	if math.Abs(coeff) < coeffEps {
		return Poly{}
	}
	return single(coeff, monoOf(mono))
}

func single(c float64, m *monoRec) Poly {
	if math.Abs(c) < coeffEps {
		return Poly{}
	}
	return Poly{terms: []term{{c, m}}}
}

const coeffEps = 1e-12

// accum adds c to the running coefficient sum acc under the package's
// drop rule: an addend below coeffEps in magnitude is ignored, and a
// sum that falls below coeffEps becomes 0 (the term disappears, and a
// later addend starts it afresh).
func accum(acc, c float64) float64 {
	if math.Abs(c) < coeffEps {
		return acc
	}
	acc += c
	if math.Abs(acc) < coeffEps {
		return 0
	}
	return acc
}

// ConstSum returns the constant Σ vs, accumulated in order under the
// same drop rule as AddConst: ConstSum(vs) equals the AddConst chain
// Zero().AddConst(vs[0]).AddConst(vs[1])… without building each
// intermediate polynomial.
func ConstSum(vs []float64) Poly {
	acc := 0.0
	for _, v := range vs {
		acc = accum(acc, v)
	}
	return Const(acc)
}

// collect returns the polynomial of the terms in ts, which may be in
// any order and repeat monomials. Equal monomials fold in the order
// they appear in ts, under accum's drop rule, so collecting the
// concatenated terms of several polynomials gives exactly the result
// of adding them left to right. ts is reordered; the result does not
// alias it.
func collect(ts []term) Poly {
	slices.SortStableFunc(ts, func(a, b term) int { return monoCmp(a.mono, b.mono) })
	n := 0
	for i := 0; i < len(ts); {
		m, acc := ts[i].mono, 0.0
		for ; i < len(ts) && ts[i].mono == m; i++ {
			acc = accum(acc, ts[i].coeff)
		}
		if acc != 0 {
			ts[n] = term{acc, m}
			n++
		}
	}
	if n == 0 {
		return Poly{}
	}
	return Poly{terms: slices.Clone(ts[:n])}
}

// collectFrom runs build over pooled scratch and collects the terms it
// appends.
func collectFrom(build func(ts []term) ([]term, error)) (Poly, error) {
	sc := scratchPool.Get().(*scratch)
	ts, err := build(sc.terms[:0])
	var out Poly
	if err == nil {
		out = collect(ts)
	}
	sc.terms = ts[:0]
	scratchPool.Put(sc)
	return out, err
}

// IsZero reports whether p is the zero polynomial.
func (p Poly) IsZero() bool { return len(p.terms) == 0 }

// IsConst reports whether p has no variables; if so it returns the value.
func (p Poly) IsConst() (float64, bool) {
	switch {
	case len(p.terms) == 0:
		return 0, true
	case len(p.terms) == 1 && p.terms[0].mono == one:
		return p.terms[0].coeff, true
	}
	return 0, false
}

// ConstPart returns the coefficient of the constant monomial.
func (p Poly) ConstPart() float64 {
	if i := p.constIndex(); i < len(p.terms) && p.terms[i].mono == one {
		return p.terms[i].coeff
	}
	return 0
}

// constIndex returns where the constant term is, or would be inserted:
// the first term of degree ≤ 0, since the constant's key "" sorts
// first among degree-0 monomials.
func (p Poly) constIndex() int {
	for i, t := range p.terms {
		if t.mono.deg <= 0 {
			return i
		}
	}
	return len(p.terms)
}

// NumTerms returns the number of (nonzero) terms.
func (p Poly) NumTerms() int { return len(p.terms) }

// Add returns p + q, a linear merge of the two term lists.
func (p Poly) Add(q Poly) Poly { return merge(p, q, 1) }

// Sub returns p − q.
func (p Poly) Sub(q Poly) Poly { return merge(p, q, -1) }

// merge returns p + sign·q for sign ±1.
func merge(p, q Poly, sign float64) Poly {
	switch {
	case len(q.terms) == 0:
		return p
	case len(p.terms) == 0 && sign == 1:
		return q
	}
	a, b := p.terms, q.terms
	out := make([]term, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch c := monoCmp(a[i].mono, b[j].mono); {
		case c < 0:
			out = append(out, a[i])
			i++
		case c > 0:
			out = append(out, term{sign * b[j].coeff, b[j].mono})
			j++
		default:
			if s := a[i].coeff + sign*b[j].coeff; math.Abs(s) >= coeffEps {
				out = append(out, term{s, a[i].mono})
			}
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	for ; j < len(b); j++ {
		out = append(out, term{sign * b[j].coeff, b[j].mono})
	}
	if len(out) == 0 {
		return Poly{}
	}
	return Poly{terms: out}
}

// Scale returns c·p. Scaling never changes monomials, so the term
// order carries over.
func (p Poly) Scale(c float64) Poly {
	switch {
	case len(p.terms) == 0 || math.Abs(c) < coeffEps:
		return Poly{}
	case c == 1:
		return p
	}
	out := make([]term, 0, len(p.terms))
	for _, t := range p.terms {
		if sc := c * t.coeff; math.Abs(sc) >= coeffEps {
			out = append(out, term{sc, t.mono})
		}
	}
	if len(out) == 0 {
		return Poly{}
	}
	return Poly{terms: out}
}

// Neg returns −p.
func (p Poly) Neg() Poly { return p.Scale(-1) }

// AddConst returns p + c.
func (p Poly) AddConst(c float64) Poly {
	if math.Abs(c) < coeffEps {
		return p
	}
	i := p.constIndex()
	if i < len(p.terms) && p.terms[i].mono == one {
		s := p.terms[i].coeff + c
		if math.Abs(s) < coeffEps {
			if len(p.terms) == 1 {
				return Poly{}
			}
			return Poly{terms: slices.Delete(slices.Clone(p.terms), i, i+1)}
		}
		out := slices.Clone(p.terms)
		out[i].coeff = s
		return Poly{terms: out}
	}
	out := make([]term, len(p.terms)+1)
	copy(out, p.terms[:i])
	out[i] = term{c, one}
	copy(out[i+1:], p.terms[i:])
	return Poly{terms: out}
}

// Mul returns p·q. The products are collected in pooled scratch, then
// sorted and folded; a constant factor is a Scale.
func (p Poly) Mul(q Poly) Poly {
	switch {
	case len(p.terms) == 0 || len(q.terms) == 0:
		return Poly{}
	case len(q.terms) == 1 && q.terms[0].mono == one:
		return p.Scale(q.terms[0].coeff)
	case len(p.terms) == 1 && p.terms[0].mono == one:
		return q.Scale(p.terms[0].coeff)
	}
	out, _ := collectFrom(func(ts []term) ([]term, error) {
		for _, a := range p.terms {
			for _, b := range q.terms {
				if c := a.coeff * b.coeff; math.Abs(c) >= coeffEps {
					ts = append(ts, term{c, a.mono.mul(b.mono)})
				}
			}
		}
		return ts, nil
	})
	return out
}

// MulVar returns p · v^exp.
func (p Poly) MulVar(v Var, exp int) Poly {
	if exp == 0 {
		return p
	}
	return p.Mul(single(1, internVEs([]ve{{v, exp}})))
}

// Pow returns p^n for n ≥ 0.
func (p Poly) Pow(n int) Poly {
	if n < 0 {
		panic("symexpr: Pow with negative exponent")
	}
	out := Const(1)
	base := p
	for n > 0 {
		if n&1 == 1 {
			out = out.Mul(base)
		}
		base = base.Mul(base)
		n >>= 1
	}
	return out
}

// Vars returns the variables appearing in p, sorted.
func (p Poly) Vars() []Var {
	out := []Var{}
	for _, t := range p.terms {
		for _, x := range t.mono.ves {
			out = append(out, x.v)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Degree returns the highest exponent of v in p (0 if v absent),
// considering only positive exponents. MinDegree gives the most
// negative exponent.
func (p Poly) Degree(v Var) int {
	d := 0
	for _, t := range p.terms {
		d = max(d, t.mono.degree(v))
	}
	return d
}

// MinDegree returns the most negative exponent of v in p (0 if none).
func (p Poly) MinDegree(v Var) int {
	d := 0
	for _, t := range p.terms {
		d = min(d, t.mono.degree(v))
	}
	return d
}

// IsPolynomialIn reports whether no term has a negative exponent of v.
func (p Poly) IsPolynomialIn(v Var) bool { return p.MinDegree(v) == 0 }

// Eval evaluates p with the given variable assignment, summing the
// terms in their stored order. Variables absent from the assignment
// cause an error.
func (p Poly) Eval(assign map[Var]float64) (float64, error) {
	sum := 0.0
	for _, t := range p.terms {
		val := t.coeff
		for _, x := range t.mono.ves {
			a, ok := assign[x.v]
			if !ok {
				return 0, fmt.Errorf("symexpr: unbound variable %q", x.v)
			}
			if x.e < 0 && a == 0 {
				return 0, fmt.Errorf("symexpr: division by zero evaluating %q^%d", x.v, x.e)
			}
			val *= math.Pow(a, float64(x.e))
		}
		sum += val
	}
	return sum, nil
}

// MustEval is Eval that panics on error; for tests and internal use on
// fully-bound expressions.
func (p Poly) MustEval(assign map[Var]float64) float64 {
	v, err := p.Eval(assign)
	if err != nil {
		panic(err)
	}
	return v
}

// Substitute replaces v by the polynomial q in p. All exponents of v
// must be non-negative unless q is a nonzero constant.
func (p Poly) Substitute(v Var, q Poly) (Poly, error) {
	if c, ok := q.IsConst(); ok {
		return p.substConst(v, c)
	}
	if p.Degree(v) == 0 && p.MinDegree(v) == 0 {
		return p, nil
	}
	pows := make([]Poly, p.Degree(v)+1)
	return collectFrom(func(ts []term) ([]term, error) {
		for _, t := range p.terms {
			e := t.mono.degree(v)
			switch {
			case e < 0:
				return ts, fmt.Errorf("symexpr: cannot substitute polynomial into negative power %s^%d", v, e)
			case e == 0:
				ts = append(ts, t)
				continue
			}
			if pows[e].IsZero() {
				pows[e] = q.Pow(e)
			}
			rest := t.mono.without(v)
			for _, u := range pows[e].terms {
				if c := t.coeff * u.coeff; math.Abs(c) >= coeffEps {
					ts = append(ts, term{c, rest.mul(u.mono)})
				}
			}
		}
		return ts, nil
	})
}

func (p Poly) substConst(v Var, c float64) (Poly, error) {
	if p.Degree(v) == 0 && p.MinDegree(v) == 0 {
		return p, nil
	}
	return collectFrom(func(ts []term) ([]term, error) {
		for _, t := range p.terms {
			e := t.mono.degree(v)
			switch {
			case e < 0 && c == 0:
				return ts, fmt.Errorf("symexpr: substituting 0 into negative power of %s", v)
			case e == 0:
				ts = append(ts, t)
			default:
				ts = append(ts, term{t.coeff * math.Pow(c, float64(e)), t.mono.without(v)})
			}
		}
		return ts, nil
	})
}

// MustSubstitute is Substitute that panics on error.
func (p Poly) MustSubstitute(v Var, q Poly) Poly {
	r, err := p.Substitute(v, q)
	if err != nil {
		panic(err)
	}
	return r
}

// Coeffs returns, for a polynomial that is univariate in v (all other
// variables must be absent), the dense coefficient slice c[0..deg] such
// that p = Σ c[i]·v^i. It errors if p has other variables or negative
// powers of v.
func (p Poly) Coeffs(v Var) ([]float64, error) {
	out := make([]float64, p.Degree(v)+1)
	for _, t := range p.terms {
		for _, x := range t.mono.ves {
			if x.v != v {
				return nil, fmt.Errorf("symexpr: polynomial is not univariate in %q (contains %q)", v, x.v)
			}
		}
		e := t.mono.degree(v)
		if e < 0 {
			return nil, fmt.Errorf("symexpr: negative power %s^%d", v, e)
		}
		out[e] += t.coeff
	}
	return out, nil
}

// CoeffOf returns the sub-polynomial multiplying v^exp.
func (p Poly) CoeffOf(v Var, exp int) Poly {
	out, _ := collectFrom(func(ts []term) ([]term, error) {
		for _, t := range p.terms {
			if t.mono.degree(v) == exp {
				ts = append(ts, term{t.coeff, t.mono.without(v)})
			}
		}
		return ts, nil
	})
	return out
}

// Derivative returns ∂p/∂v.
func (p Poly) Derivative(v Var) Poly {
	out, _ := collectFrom(func(ts []term) ([]term, error) {
		for _, t := range p.terms {
			if e := t.mono.degree(v); e != 0 {
				ts = append(ts, term{t.coeff * float64(e), t.mono.withExp(v, e-1)})
			}
		}
		return ts, nil
	})
	return out
}

// Equal reports whether p and q agree within tol on every coefficient.
func (p Poly) Equal(q Poly, tol float64) bool {
	for _, t := range p.Sub(q).terms {
		if math.Abs(t.coeff) > tol {
			return false
		}
	}
	return true
}

// String renders p in a stable, human-readable form, e.g.
// "3n^2 + 2n·k − 4 + 1/k". Terms print in stored order.
func (p Poly) String() string {
	if len(p.terms) == 0 {
		return "0"
	}
	var b strings.Builder
	for i, t := range p.terms {
		c := t.coeff
		if i == 0 {
			if c < 0 {
				b.WriteString("-")
				c = -c
			}
		} else {
			if c < 0 {
				b.WriteString(" - ")
				c = -c
			} else {
				b.WriteString(" + ")
			}
		}
		switch {
		case t.mono == one:
			b.WriteString(fmtCoeff(c))
		case math.Abs(c-1) < coeffEps:
			b.WriteString(t.mono.text)
		default:
			b.WriteString(fmtCoeff(c))
			b.WriteString("·")
			b.WriteString(t.mono.text)
		}
	}
	return b.String()
}

func fmtCoeff(c float64) string {
	if c == math.Trunc(c) && math.Abs(c) < 1e15 {
		return fmt.Sprintf("%d", int64(c))
	}
	return fmt.Sprintf("%g", c)
}

// Terms returns the terms of p as (coefficient, monomial) pairs in the
// order String prints them. The monomials are fresh maps.
func (p Poly) Terms() []struct {
	Coeff float64
	Mono  Monomial
} {
	out := make([]struct {
		Coeff float64
		Mono  Monomial
	}, len(p.terms))
	for i, t := range p.terms {
		out[i].Coeff, out[i].Mono = t.coeff, t.mono.monomial()
	}
	return out
}
