package symexpr

import (
	"fmt"
	"math"
	"sort"
)

// Interval is a closed range of possible values for a variable, e.g.
// the known bounds on a loop limit ("if the range of x is [3, 100]…",
// §3.1).
type Interval struct {
	Lo, Hi float64
}

// Bounds maps each variable to its known interval.
type Bounds map[Var]Interval

// Sign classifies the value of an expression over a region.
type Sign int

const (
	SignUnknown  Sign = iota // could not be decided
	SignNegative             // < 0 everywhere
	SignZero                 // ≡ 0
	SignPositive             // > 0 everywhere
	SignMixed                // provably takes both signs
)

func (s Sign) String() string {
	switch s {
	case SignNegative:
		return "negative"
	case SignZero:
		return "zero"
	case SignPositive:
		return "positive"
	case SignMixed:
		return "mixed"
	default:
		return "unknown"
	}
}

// Region is a sub-interval of a variable's range over which an
// expression has constant sign (Figure 10 of the paper shows these
// regions for a cubic).
type Region struct {
	Lo, Hi float64
	Sign   Sign
}

// SignRegions partitions [b.Lo, b.Hi] for variable v into maximal
// regions of constant sign of p. p must be univariate in v.
func SignRegions(p Poly, v Var, b Interval) ([]Region, error) {
	if c, ok := p.IsConst(); ok {
		return []Region{{b.Lo, b.Hi, signOf(c)}}, nil
	}
	roots, err := Roots(p, v, b.Lo, b.Hi)
	if err != nil {
		return nil, err
	}
	pts := append([]float64{b.Lo}, roots...)
	pts = append(pts, b.Hi)
	var regions []Region
	for i := 0; i+1 < len(pts); i++ {
		lo, hi := pts[i], pts[i+1]
		if hi <= lo {
			continue
		}
		mid := (lo + hi) / 2
		val := p.MustEval(map[Var]float64{v: mid})
		regions = append(regions, Region{lo, hi, signOf(val)})
	}
	if len(regions) == 0 {
		val := p.MustEval(map[Var]float64{v: b.Lo})
		regions = []Region{{b.Lo, b.Hi, signOf(val)}}
	}
	return mergeRegions(regions), nil
}

func signOf(v float64) Sign {
	switch {
	case math.Abs(v) < coeffEps:
		return SignZero
	case v < 0:
		return SignNegative
	default:
		return SignPositive
	}
}

func mergeRegions(rs []Region) []Region {
	out := rs[:0]
	for _, r := range rs {
		if len(out) > 0 && out[len(out)-1].Sign == r.Sign {
			out[len(out)-1].Hi = r.Hi
			continue
		}
		out = append(out, r)
	}
	return out
}

// Verdict is the outcome of a symbolic comparison C(f) vs C(g).
type Verdict int

const (
	VerdictUnknown     Verdict = iota // bounds insufficient; guess or emit run-time test
	VerdictFirstBetter                // C(f) < C(g) over the whole region
	VerdictEqual                      // C(f) ≡ C(g)
	VerdictSecondBetter
	VerdictDepends // winner depends on unknowns; see Regions
)

func (v Verdict) String() string {
	switch v {
	case VerdictFirstBetter:
		return "first better"
	case VerdictEqual:
		return "equal"
	case VerdictSecondBetter:
		return "second better"
	case VerdictDepends:
		return "depends on unknowns"
	default:
		return "unknown"
	}
}

// Comparison is the full result of Compare.
type Comparison struct {
	Verdict Verdict
	// Diff is P = C(f) − C(g).
	Diff Poly
	// Regions is set when the difference is univariate: sign regions
	// of P over the variable's bounds. SignNegative regions are where
	// the first expression wins.
	Regions []Region
	// Var is the variable Regions is expressed in.
	Var Var
	// FirstShare is the fraction of the (sampled or exact) region where
	// the first expression is at least as cheap.
	FirstShare float64
}

// Compare decides symbolically which of two performance expressions is
// smaller over the given bounds (§3.1). If the difference is univariate
// the decision is exact via sign regions; multivariate differences are
// decided by interval bounding, falling back to grid sampling (the
// "compute the condition / guess" escape hatch the paper describes).
func Compare(f, g Poly, bounds Bounds) (Comparison, error) {
	p := f.Sub(g)
	cmp := Comparison{Diff: p}
	if c, ok := p.IsConst(); ok {
		cmp.Verdict = verdictFromSign(signOf(c))
		if cmp.Verdict == VerdictFirstBetter || cmp.Verdict == VerdictEqual {
			cmp.FirstShare = 1
		}
		return cmp, nil
	}
	vars := p.Vars()
	for _, v := range vars {
		if _, ok := bounds[v]; !ok {
			return cmp, fmt.Errorf("symexpr: Compare: no bounds for variable %q", v)
		}
	}
	if len(vars) == 1 && p.IsPolynomialIn(vars[0]) {
		v := vars[0]
		regions, err := SignRegions(p, v, bounds[v])
		if err != nil {
			return cmp, err
		}
		cmp.Var = v
		cmp.Regions = regions
		cmp.Verdict, cmp.FirstShare = classifyRegions(regions)
		return cmp, nil
	}
	// Multivariate (or Laurent): interval bound first.
	lo, hi := IntervalBound(p, bounds)
	switch {
	case hi < 0:
		cmp.Verdict, cmp.FirstShare = VerdictFirstBetter, 1
		return cmp, nil
	case lo > 0:
		cmp.Verdict = VerdictSecondBetter
		return cmp, nil
	case lo == 0 && hi == 0:
		cmp.Verdict, cmp.FirstShare = VerdictEqual, 1
		return cmp, nil
	}
	// Sample a grid to distinguish Depends from one-sided.
	share, sawNeg, sawPos := sampleShare(p, vars, bounds)
	cmp.FirstShare = share
	switch {
	case sawNeg && sawPos:
		cmp.Verdict = VerdictDepends
	case sawNeg:
		cmp.Verdict = VerdictFirstBetter
	case sawPos:
		cmp.Verdict = VerdictSecondBetter
	default:
		cmp.Verdict = VerdictEqual
	}
	return cmp, nil
}

func verdictFromSign(s Sign) Verdict {
	switch s {
	case SignNegative:
		return VerdictFirstBetter
	case SignZero:
		return VerdictEqual
	case SignPositive:
		return VerdictSecondBetter
	default:
		return VerdictUnknown
	}
}

func classifyRegions(regions []Region) (Verdict, float64) {
	var negSpan, posSpan, total float64
	for _, r := range regions {
		span := r.Hi - r.Lo
		total += span
		switch r.Sign {
		case SignNegative:
			negSpan += span
		case SignPositive:
			posSpan += span
		case SignZero:
			negSpan += span // ties count for "first at least as cheap"
		}
	}
	if total == 0 {
		// Degenerate point interval: classify by the single region sign.
		if len(regions) > 0 {
			v := verdictFromSign(regions[0].Sign)
			share := 0.0
			if v == VerdictFirstBetter || v == VerdictEqual {
				share = 1
			}
			return v, share
		}
		return VerdictUnknown, 0
	}
	share := negSpan / total
	switch {
	case posSpan == 0 && negSpan == total && allZero(regions):
		return VerdictEqual, 1
	case posSpan == 0:
		return VerdictFirstBetter, share
	case negSpan == 0:
		return VerdictSecondBetter, share
	default:
		return VerdictDepends, share
	}
}

func allZero(regions []Region) bool {
	for _, r := range regions {
		if r.Sign != SignZero {
			return false
		}
	}
	return true
}

// IntervalBound computes conservative lower and upper bounds on p over
// the box given by bounds, by bounding each monomial independently.
// Exact for single-term expressions; conservative otherwise.
func IntervalBound(p Poly, bounds Bounds) (lo, hi float64) {
	for _, t := range p.terms {
		mlo, mhi := 1.0, 1.0
		for _, x := range t.mono.ves {
			iv, ok := bounds[x.v]
			if !ok {
				return math.Inf(-1), math.Inf(1)
			}
			plo, phi := powInterval(iv, x.e)
			mlo, mhi = mulInterval(mlo, mhi, plo, phi)
		}
		tlo, thi := mlo*t.coeff, mhi*t.coeff
		if tlo > thi {
			tlo, thi = thi, tlo
		}
		lo += tlo
		hi += thi
	}
	return lo, hi
}

func powInterval(iv Interval, e int) (float64, float64) {
	if e == 0 {
		return 1, 1
	}
	if e < 0 {
		if iv.Lo <= 0 && iv.Hi >= 0 {
			return math.Inf(-1), math.Inf(1)
		}
		lo, hi := powInterval(iv, -e)
		return 1 / hi, 1 / lo
	}
	a, b := math.Pow(iv.Lo, float64(e)), math.Pow(iv.Hi, float64(e))
	if e%2 == 0 && iv.Lo < 0 && iv.Hi > 0 {
		return 0, math.Max(a, b)
	}
	if a > b {
		a, b = b, a
	}
	return a, b
}

func mulInterval(alo, ahi, blo, bhi float64) (float64, float64) {
	cands := [4]float64{alo * blo, alo * bhi, ahi * blo, ahi * bhi}
	lo, hi := cands[0], cands[0]
	for _, c := range cands[1:] {
		lo = math.Min(lo, c)
		hi = math.Max(hi, c)
	}
	return lo, hi
}

const sampleGridPerVar = 9

func sampleShare(p Poly, vars []Var, bounds Bounds) (share float64, sawNeg, sawPos bool) {
	idx := make([]int, len(vars))
	assign := map[Var]float64{}
	var negOrZero, total int
	for {
		for i, v := range vars {
			iv := bounds[v]
			frac := float64(idx[i]) / float64(sampleGridPerVar-1)
			assign[v] = iv.Lo + frac*(iv.Hi-iv.Lo)
		}
		if val, err := p.Eval(assign); err == nil {
			total++
			switch signOf(val) {
			case SignNegative:
				sawNeg = true
				negOrZero++
			case SignPositive:
				sawPos = true
			case SignZero:
				negOrZero++
			}
		}
		// Advance the odometer.
		i := 0
		for ; i < len(idx); i++ {
			idx[i]++
			if idx[i] < sampleGridPerVar {
				break
			}
			idx[i] = 0
		}
		if i == len(idx) {
			break
		}
	}
	if total == 0 {
		return 0, false, false
	}
	return float64(negOrZero) / float64(total), sawNeg, sawPos
}

// IntegralCompare integrates P⁺ and P⁻ of P = f − g over the variable's
// bounds (univariate case), returning (∫P⁺, ∫P⁻). The paper proposes
// these integrals as one way to rank transformations whose winner
// depends on unknowns.
func IntegralCompare(f, g Poly, v Var, b Interval) (posArea, negArea float64, err error) {
	p := f.Sub(g)
	regions, err := SignRegions(p, v, b)
	if err != nil {
		return 0, 0, err
	}
	coeffs, err := p.Coeffs(v)
	if err != nil {
		return 0, 0, err
	}
	anti := make([]float64, len(coeffs)+1)
	for i, c := range coeffs {
		anti[i+1] = c / float64(i+1)
	}
	F := func(x float64) float64 { return horner(anti, x) }
	for _, r := range regions {
		area := F(r.Hi) - F(r.Lo)
		switch r.Sign {
		case SignPositive:
			posArea += area
		case SignNegative:
			negArea += -area
		}
	}
	return posArea, negArea, nil
}

// RuntimeTest describes a run-time test `P < 0` that selects the first
// of two alternatives (§3.4: "the conditions on the performance
// expressions can be used to formulate the run-time tests").
type RuntimeTest struct {
	// Condition is the polynomial whose negativity selects the first
	// alternative.
	Condition Poly
	// Thresholds are the crossover points in Var when univariate.
	Var        Var
	Thresholds []float64
}

// DeriveRuntimeTest turns a VerdictDepends comparison into a run-time
// test description.
func DeriveRuntimeTest(cmp Comparison) (RuntimeTest, bool) {
	if cmp.Verdict != VerdictDepends {
		return RuntimeTest{}, false
	}
	rt := RuntimeTest{Condition: cmp.Diff, Var: cmp.Var}
	seen := map[float64]bool{}
	for i := 1; i < len(cmp.Regions); i++ {
		th := cmp.Regions[i].Lo
		if !seen[th] {
			seen[th] = true
			rt.Thresholds = append(rt.Thresholds, th)
		}
	}
	sort.Float64s(rt.Thresholds)
	return rt, true
}
