package symexpr

// A test-only reference: the map-of-maps Poly this package used before
// terms became sorted slices over interned monomials, kept as it was
// with its identifiers prefixed "ref", so that mapdiff_test.go can
// drive both representations with the same expression trees. Only the
// operations the differential test uses are kept; fmtCoeff, bernoulli,
// binomial, coeffEps, maxSumDegree, sumVar and ve are shared with the
// package.

import (
	"fmt"
	"math"
	"math/big"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// refMono is a product of variables raised to integer powers.
// Negative exponents are permitted (Laurent terms such as 1/x^3,
// which §3.1 of the paper drops when dominated).
type refMono map[Var]int

// key returns the canonical (interned) string form usable as a map
// key; see refIntern.go.
func (m refMono) key() string { return refMonoKey(m) }

func (m refMono) clone() refMono {
	c := make(refMono, len(m))
	for v, e := range m {
		if e != 0 {
			c[v] = e
		}
	}
	return c
}

// degree returns the exponent of v in m.
func (m refMono) degree(v Var) int { return m[v] }

// totalDegree returns the sum of positive exponents minus negative ones.
func (m refMono) totalDegree() int {
	d := 0
	for _, e := range m {
		d += e
	}
	return d
}

// refPoly is a multivariate Laurent polynomial with float64 coefficients.
// The zero value is the zero polynomial. refPoly values are immutable:
// all operations return new polynomials.
type refPoly struct {
	// terms maps a monomial key to its term. Coefficients are never
	// stored as exact zeros.
	terms map[string]refPolyTerm
}

type refPolyTerm struct {
	coeff float64
	mono  refMono
}

// Zero returns the zero polynomial.
func refZero() refPoly { return refPoly{} }

// Const returns the constant polynomial c.
func refConst(c float64) refPoly {
	p := refPoly{}
	p = p.addTerm(c, refMono{})
	return p
}

// NewVar returns the polynomial consisting of the single variable v.
func refNewVar(v Var) refPoly {
	p := refPoly{}
	return p.addTerm(1, refMono{v: 1})
}

// Term returns coeff * Π v_i^e_i.
func refTerm(coeff float64, mono refMono) refPoly {
	p := refPoly{}
	return p.addTerm(coeff, mono)
}

// addTerm returns p with coeff*mono added, cloning p (and the caller's
// monomial, which may be reused) — the safe entry point behind Const,
// NewVar, Term and the summation code. The arithmetic hot paths below
// instead clone once and merge in place via refAddInto.
func (p refPoly) addTerm(coeff float64, mono refMono) refPoly {
	out := p.clone()
	if math.Abs(coeff) < coeffEps {
		return out
	}
	if out.terms == nil {
		out.terms = make(map[string]refPolyTerm, 1)
	}
	m := mono.clone()
	refAddInto(out.terms, m.key(), coeff, m)
	return out
}

// refAddInto accumulates coeff·mono (whose canonical key is key) into a
// terms map owned by the caller. mono is retained when the key is new,
// so it must not be mutated afterwards — the package-wide invariant
// that refMono maps inside polyTerms are immutable.
func refAddInto(terms map[string]refPolyTerm, key string, coeff float64, mono refMono) {
	if math.Abs(coeff) < coeffEps {
		return
	}
	if t, ok := terms[key]; ok {
		c := t.coeff + coeff
		if math.Abs(c) < coeffEps {
			delete(terms, key)
		} else {
			terms[key] = refPolyTerm{c, t.mono}
		}
		return
	}
	terms[key] = refPolyTerm{coeff, mono}
}

func (p refPoly) clone() refPoly {
	return p.cloneExtra(0)
}

// cloneExtra clones p with capacity for extra additional terms. The
// monomial maps are shared: they are immutable once stored.
func (p refPoly) cloneExtra(extra int) refPoly {
	if p.terms == nil && extra == 0 {
		return refPoly{}
	}
	c := refPoly{terms: make(map[string]refPolyTerm, len(p.terms)+extra)}
	for k, t := range p.terms {
		c.terms[k] = t
	}
	return c
}

// IsZero reports whether p is the zero polynomial.
func (p refPoly) IsZero() bool { return len(p.terms) == 0 }

// IsConst reports whether p has no variables; if so it returns the value.
func (p refPoly) IsConst() (float64, bool) {
	switch len(p.terms) {
	case 0:
		return 0, true
	case 1:
		for k, t := range p.terms {
			if k == "" {
				return t.coeff, true
			}
		}
	}
	return 0, false
}

// Add returns p + q. The result shares monomial maps with its inputs
// (they are immutable); only the term table is fresh.
func (p refPoly) Add(q refPoly) refPoly {
	if len(q.terms) == 0 {
		return p.clone()
	}
	out := p.cloneExtra(len(q.terms))
	for k, t := range q.terms {
		refAddInto(out.terms, k, t.coeff, t.mono)
	}
	return out
}

// Sub returns p − q.
func (p refPoly) Sub(q refPoly) refPoly {
	if len(q.terms) == 0 {
		return p.clone()
	}
	out := p.cloneExtra(len(q.terms))
	for k, t := range q.terms {
		refAddInto(out.terms, k, -t.coeff, t.mono)
	}
	return out
}

// Scale returns c·p. Scaling never changes monomials, so keys are
// copied verbatim.
func (p refPoly) Scale(c float64) refPoly {
	if len(p.terms) == 0 || math.Abs(c) < coeffEps {
		return refPoly{}
	}
	out := refPoly{terms: make(map[string]refPolyTerm, len(p.terms))}
	for k, t := range p.terms {
		if sc := c * t.coeff; math.Abs(sc) >= coeffEps {
			out.terms[k] = refPolyTerm{sc, t.mono}
		}
	}
	return out
}

// Neg returns −p.
func (p refPoly) Neg() refPoly { return p.Scale(-1) }

// AddConst returns p + c.
func (p refPoly) AddConst(c float64) refPoly {
	out := p.cloneExtra(1)
	refAddInto(out.terms, "", c, refMono{})
	return out
}

// Mul returns p·q.
func (p refPoly) Mul(q refPoly) refPoly {
	if len(p.terms) == 0 || len(q.terms) == 0 {
		return refPoly{}
	}
	out := refPoly{terms: make(map[string]refPolyTerm, len(p.terms)*len(q.terms))}
	sc := refKeyScratchPool.Get().(*refKeyScratch)
	for _, a := range p.terms {
		for kb, b := range q.terms {
			coeff := a.coeff * b.coeff
			if math.Abs(coeff) < coeffEps {
				continue
			}
			if len(a.mono) == 0 {
				refAddInto(out.terms, kb, coeff, b.mono)
				continue
			}
			// Merge the two monomials into scratch, key the result,
			// and only materialize a refMono map when the term is new.
			ves := refAppendVE(sc.ves[:0], a.mono)
			for v, e := range b.mono {
				if e == 0 {
					continue
				}
				found := false
				for i := range ves {
					if ves[i].v == v {
						ves[i].e += e
						found = true
						break
					}
				}
				if !found {
					ves = append(ves, ve{v, e})
				}
			}
			n := 0
			for _, x := range ves {
				if x.e != 0 {
					ves[n] = x
					n++
				}
			}
			ves = ves[:n]
			// Re-sort: merging may have appended b's vars out of order.
			for i := 1; i < len(ves); i++ {
				for j := i; j > 0 && ves[j].v < ves[j-1].v; j-- {
					ves[j], ves[j-1] = ves[j-1], ves[j]
				}
			}
			sc.ves = ves
			buf := refAppendKey(sc.buf[:0], ves)
			sc.buf = buf
			key := refIntern(buf)
			if t, ok := out.terms[key]; ok {
				c := t.coeff + coeff
				if math.Abs(c) < coeffEps {
					delete(out.terms, key)
				} else {
					out.terms[key] = refPolyTerm{c, t.mono}
				}
				continue
			}
			m := make(refMono, len(ves))
			for _, x := range ves {
				m[x.v] = x.e
			}
			out.terms[key] = refPolyTerm{coeff, m}
		}
	}
	refKeyScratchPool.Put(sc)
	return out
}

// Pow returns p^n for n ≥ 0.
func (p refPoly) Pow(n int) refPoly {
	if n < 0 {
		panic("symexpr: Pow with negative exponent")
	}
	out := refConst(1)
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

// Degree returns the highest exponent of v in p (0 if v absent),
// considering only positive exponents. MinDegree gives the most
// negative exponent.
func (p refPoly) Degree(v Var) int {
	d := 0
	for _, t := range p.terms {
		if e := t.mono.degree(v); e > d {
			d = e
		}
	}
	return d
}

// MinDegree returns the most negative exponent of v in p (0 if none).
func (p refPoly) MinDegree(v Var) int {
	d := 0
	for _, t := range p.terms {
		if e := t.mono.degree(v); e < d {
			d = e
		}
	}
	return d
}

// IsPolynomialIn reports whether no term has a negative exponent of v.
func (p refPoly) IsPolynomialIn(v Var) bool { return p.MinDegree(v) == 0 }

// Eval evaluates p with the given variable assignment. Variables absent
// from the assignment cause an error.
func (p refPoly) Eval(assign map[Var]float64) (float64, error) {
	sum := 0.0
	for _, t := range p.terms {
		val := t.coeff
		for v, e := range t.mono {
			x, ok := assign[v]
			if !ok {
				return 0, fmt.Errorf("symexpr: unbound variable %q", v)
			}
			if e < 0 && x == 0 {
				return 0, fmt.Errorf("symexpr: division by zero evaluating %q^%d", v, e)
			}
			val *= math.Pow(x, float64(e))
		}
		sum += val
	}
	return sum, nil
}

// Substitute replaces v by the polynomial q in p. All exponents of v
// must be non-negative unless q is a nonzero constant.
func (p refPoly) Substitute(v Var, q refPoly) (refPoly, error) {
	if c, ok := q.IsConst(); ok {
		return p.substConst(v, c)
	}
	out := refPoly{}
	for _, t := range p.terms {
		e := t.mono.degree(v)
		if e < 0 {
			return refPoly{}, fmt.Errorf("symexpr: cannot substitute polynomial into negative power %s^%d", v, e)
		}
		rest := t.mono.clone()
		delete(rest, v)
		piece := refTerm(t.coeff, rest)
		if e > 0 {
			piece = piece.Mul(q.Pow(e))
		}
		out = out.Add(piece)
	}
	return out, nil
}

func (p refPoly) substConst(v Var, c float64) (refPoly, error) {
	out := refPoly{terms: make(map[string]refPolyTerm, len(p.terms))}
	for k, t := range p.terms {
		e := t.mono.degree(v)
		if e < 0 && c == 0 {
			return refPoly{}, fmt.Errorf("symexpr: substituting 0 into negative power of %s", v)
		}
		if e == 0 {
			refAddInto(out.terms, k, t.coeff, t.mono)
			continue
		}
		rest := t.mono.clone()
		delete(rest, v)
		refAddInto(out.terms, rest.key(), t.coeff*math.Pow(c, float64(e)), rest)
	}
	return out, nil
}

// CoeffOf returns the sub-polynomial multiplying v^exp.
func (p refPoly) CoeffOf(v Var, exp int) refPoly {
	out := refPoly{terms: map[string]refPolyTerm{}}
	for _, t := range p.terms {
		if t.mono.degree(v) != exp {
			continue
		}
		rest := t.mono.clone()
		delete(rest, v)
		refAddInto(out.terms, rest.key(), t.coeff, rest)
	}
	return out
}

// Derivative returns ∂p/∂v.
func (p refPoly) Derivative(v Var) refPoly {
	out := refPoly{terms: map[string]refPolyTerm{}}
	for _, t := range p.terms {
		e := t.mono.degree(v)
		if e == 0 {
			continue
		}
		m := t.mono.clone()
		m[v] = e - 1
		if m[v] == 0 {
			delete(m, v)
		}
		refAddInto(out.terms, m.key(), t.coeff*float64(e), m)
	}
	return out
}

// String renders p in a stable, human-readable form, e.g.
// "3n^2 + 2n·k − 4 + 1/k".
func (p refPoly) String() string {
	if len(p.terms) == 0 {
		return "0"
	}
	type st struct {
		key  string
		td   int
		term refPolyTerm
	}
	list := make([]st, 0, len(p.terms))
	for k, t := range p.terms {
		list = append(list, st{k, t.mono.totalDegree(), t})
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].td != list[j].td {
			return list[i].td > list[j].td
		}
		return list[i].key < list[j].key
	})
	var b strings.Builder
	for i, s := range list {
		c := s.term.coeff
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
		monoStr := refMonoString(s.term.mono)
		switch {
		case monoStr == "":
			fmt.Fprintf(&b, "%s", fmtCoeff(c))
		case math.Abs(c-1) < coeffEps:
			b.WriteString(monoStr)
		default:
			fmt.Fprintf(&b, "%s·%s", fmtCoeff(c), monoStr)
		}
	}
	return b.String()
}

func refMonoString(m refMono) string {
	if len(m) == 0 {
		return ""
	}
	type ve struct {
		v Var
		e int
	}
	list := make([]ve, 0, len(m))
	for v, e := range m {
		if e != 0 {
			list = append(list, ve{v, e})
		}
	}
	sort.Slice(list, func(i, j int) bool { return list[i].v < list[j].v })
	parts := make([]string, 0, len(list))
	for _, x := range list {
		switch {
		case x.e == 1:
			parts = append(parts, string(x.v))
		case x.e > 1:
			parts = append(parts, fmt.Sprintf("%s^%d", x.v, x.e))
		default:
			parts = append(parts, fmt.Sprintf("%s^(%d)", x.v, x.e))
		}
	}
	return strings.Join(parts, "·")
}

// refKeyScratch is the reusable working state for one key computation.
type refKeyScratch struct {
	buf []byte
	ves []ve
}

var refKeyScratchPool = sync.Pool{New: func() any { return new(refKeyScratch) }}

const refInternShardCount = 16

type refInternShard struct {
	mu sync.RWMutex
	m  map[string]string
}

var refInternShards [refInternShardCount]refInternShard

func init() {
	for i := range refInternShards {
		refInternShards[i].m = map[string]string{}
	}
}

// refIntern returns the canonical string for the key bytes, allocating
// only on first sight. The read path performs no allocation: Go map
// lookups with a string(b) conversion do not copy.
func refIntern(b []byte) string {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for _, c := range b {
		h ^= uint32(c)
		h *= prime32
	}
	sh := &refInternShards[h%refInternShardCount]
	sh.mu.RLock()
	s, ok := sh.m[string(b)]
	sh.mu.RUnlock()
	if ok {
		return s
	}
	sh.mu.Lock()
	s, ok = sh.m[string(b)]
	if !ok {
		s = string(b)
		sh.m[s] = s
	}
	sh.mu.Unlock()
	return s
}

// refAppendVE collects the nonzero (variable, exponent) pairs of m into
// dst, sorted by variable name.
func refAppendVE(dst []ve, m refMono) []ve {
	for v, e := range m {
		if e != 0 {
			dst = append(dst, ve{v, e})
		}
	}
	if len(dst) < 8 {
		// Insertion sort: monomials have a handful of variables.
		for i := 1; i < len(dst); i++ {
			for j := i; j > 0 && dst[j].v < dst[j-1].v; j-- {
				dst[j], dst[j-1] = dst[j-1], dst[j]
			}
		}
	} else {
		sort.Slice(dst, func(i, j int) bool { return dst[i].v < dst[j].v })
	}
	return dst
}

// refAppendKey renders sorted pairs in the canonical "v^e*w^f" form.
func refAppendKey(buf []byte, ves []ve) []byte {
	for i, x := range ves {
		if i > 0 {
			buf = append(buf, '*')
		}
		buf = append(buf, x.v...)
		buf = append(buf, '^')
		buf = strconv.AppendInt(buf, int64(x.e), 10)
	}
	return buf
}

// refMonoKey computes the interned canonical key of m.
func refMonoKey(m refMono) string {
	if len(m) == 0 {
		return ""
	}
	sc := refKeyScratchPool.Get().(*refKeyScratch)
	ves := refAppendVE(sc.ves[:0], m)
	buf := refAppendKey(sc.buf[:0], ves)
	s := refIntern(buf)
	sc.ves, sc.buf = ves, buf
	refKeyScratchPool.Put(sc)
	return s
}

// refRenameVars returns p with every variable renamed through m;
// variables absent from m are kept. The rename is simultaneous — each
// new monomial is built from the original, so cycles such as
// {a→b, b→a} behave correctly and never collide mid-rename. Terms
// whose monomials become equal under a non-injective m merge by
// coefficient addition.
//
// The incremental re-pricing layer uses this to relocate cached nest
// costs: fresh unknowns ($o3, $p4, …) are numbered by the order the
// estimator encountered them, so splicing a cached nest into a new
// traversal shifts its fresh-variable indices while all other
// variables stay fixed.
func refRenameVars(p refPoly, m map[Var]Var) refPoly {
	if len(p.terms) == 0 || len(m) == 0 {
		return p.clone()
	}
	out := refPoly{terms: make(map[string]refPolyTerm, len(p.terms))}
	for k, t := range p.terms {
		touched := false
		for v := range t.mono {
			if nv, ok := m[v]; ok && nv != v {
				touched = true
				break
			}
		}
		if !touched {
			// refMono unchanged; share it (immutable) under its key.
			refAddInto(out.terms, k, t.coeff, t.mono)
			continue
		}
		nm := make(refMono, len(t.mono))
		for v, e := range t.mono {
			if e == 0 {
				continue
			}
			nv := v
			if r, ok := m[v]; ok {
				nv = r
			}
			nm[nv] += e
		}
		for v, e := range nm {
			if e == 0 {
				delete(nm, v)
			}
		}
		refAddInto(out.terms, nm.key(), t.coeff, nm)
	}
	return out
}

// refFaulhaber returns the polynomial F_m(N) = Σ_{k=1}^{N} k^m expressed in
// the variable nv. F_0(N) = N.
func refFaulhaber(m int, nv Var) refPoly {
	if m < 0 || m > maxSumDegree {
		panic(fmt.Sprintf("symexpr: refFaulhaber degree %d out of range", m))
	}
	b := bernoulli(m)
	out := refPoly{}
	inv := new(big.Rat).SetInt64(int64(m + 1))
	for j := 0; j <= m; j++ {
		c := new(big.Rat).SetInt(binomial(m+1, j))
		c.Mul(c, b[j])
		c.Quo(c, inv)
		f, _ := c.Float64()
		out = out.addTerm(f, refMono{nv: m + 1 - j})
	}
	return out
}

// refSumOver computes Σ_{v = lb}^{ub} p symbolically, where p is a
// polynomial in v (no negative powers of v) whose coefficients may
// involve other variables, and lb, ub are polynomials not involving v.
// The result is exact for every integer lb ≤ ub when the bound
// polynomials take integer values; when ub < lb the closed form yields
// the usual "empty sum telescopes" value, which callers should guard if
// they care about empty loops.
//
// This is the engine behind the paper's loop-cost aggregation
// C(do k = lb, ub {B}) = … + Σ_k C(B(k)) (§2.4.1).
func refSumOver(p refPoly, v Var, lb, ub refPoly) (refPoly, error) {
	if !p.IsPolynomialIn(v) {
		return refPoly{}, fmt.Errorf("symexpr: refSumOver: summand has negative powers of %q", v)
	}
	for _, bound := range []refPoly{lb, ub} {
		if bound.Degree(v) != 0 || bound.MinDegree(v) != 0 {
			return refPoly{}, fmt.Errorf("symexpr: refSumOver: bound involves the summation variable %q", v)
		}
	}
	deg := p.Degree(v)
	if deg > maxSumDegree {
		return refPoly{}, fmt.Errorf("symexpr: refSumOver: degree %d exceeds limit %d", deg, maxSumDegree)
	}
	lbm1 := lb.AddConst(-1)
	out := refPoly{}
	for e := 0; e <= deg; e++ {
		coeff := p.CoeffOf(v, e)
		if coeff.IsZero() {
			continue
		}
		// Σ_{k=lb}^{ub} k^e = F_e(ub) − F_e(lb−1)
		f := refFaulhaber(e, sumVar)
		fub, err := f.Substitute(sumVar, ub)
		if err != nil {
			return refPoly{}, err
		}
		flb, err := f.Substitute(sumVar, lbm1)
		if err != nil {
			return refPoly{}, err
		}
		out = out.Add(coeff.Mul(fub.Sub(flb)))
	}
	return out, nil
}

// refSumOverStep computes Σ_{v = lb, lb+step, …, ≤ub} p for a positive
// constant integer step. It substitutes v = lb + step·j and sums j from
// 0 to T−1 where T = floor((ub−lb)/step)+1. Because floor is not
// polynomial, T must be representable: either (ub−lb) is a constant, or
// the caller accepts the rational approximation (ub−lb+step)/step, which
// is exact whenever step divides (ub−lb). The returned trip-count
// polynomial is also given back for reuse.
func refSumOverStep(p refPoly, v Var, lb, ub refPoly, step int) (sum, trips refPoly, err error) {
	if step <= 0 {
		return refPoly{}, refPoly{}, fmt.Errorf("symexpr: refSumOverStep: step %d must be positive", step)
	}
	if step == 1 {
		s, err := refSumOver(p, v, lb, ub)
		if err != nil {
			return refPoly{}, refPoly{}, err
		}
		return s, ub.Sub(lb).AddConst(1), nil
	}
	span := ub.Sub(lb)
	if c, ok := span.IsConst(); ok {
		t := int64(c)/int64(step) + 1
		if c < 0 {
			t = 0
		}
		trips = refConst(float64(t))
	} else {
		trips = span.AddConst(float64(step)).Scale(1 / float64(step))
	}
	// v = lb + step*j
	j := Var("__j")
	vsub := lb.Add(refNewVar(j).Scale(float64(step)))
	pj, err := p.Substitute(v, vsub)
	if err != nil {
		return refPoly{}, refPoly{}, err
	}
	s, err := refSumOver(pj, j, refConst(0), trips.AddConst(-1))
	if err != nil {
		return refPoly{}, refPoly{}, err
	}
	return s, trips, nil
}
