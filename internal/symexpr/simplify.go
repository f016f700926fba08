package symexpr

import (
	"math"
	"sort"
)

// DropDominatedTerms removes terms whose magnitude over the bounded box
// is at most ratio times the magnitude of the largest term (the paper's
// example: over x ∈ [3, 100], 4x⁴ + 2x³ − 4x + 1/x³ simplifies to
// 4x⁴ + 2x³ − 4x, §3.1). Magnitudes are conservative interval bounds,
// so a term is only dropped when it is provably dominated.
func DropDominatedTerms(p Poly, bounds Bounds, ratio float64) Poly {
	if len(p.terms) <= 1 {
		return p
	}
	mags := make([]float64, len(p.terms))
	maxMag := 0.0
	for i, t := range p.terms {
		lo, hi := IntervalBound(Poly{terms: []term{t}}, bounds)
		mags[i] = math.Max(math.Abs(lo), math.Abs(hi))
		if math.IsInf(mags[i], 0) {
			mags[i] = math.Inf(1)
		}
		maxMag = math.Max(maxMag, mags[i])
	}
	if maxMag == 0 || math.IsInf(maxMag, 1) {
		// Keep everything when the dominant term is unbounded: dropping
		// would not be provably safe.
		if !math.IsInf(maxMag, 1) {
			return p
		}
	}
	// The kept terms are a subsequence of p's, so they stay in order.
	var kept []term
	for i, t := range p.terms {
		if mags[i] <= ratio*maxMag && !math.IsInf(mags[i], 1) {
			continue
		}
		kept = append(kept, t)
	}
	if len(kept) == 0 {
		return p
	}
	return Poly{terms: kept}
}

// VarSensitivity is the result of sensitivity analysis for one variable.
type VarSensitivity struct {
	Var Var
	// Perturbation is |p(x + δ·x_i) − p(x − δ·x_i)| at the nominal
	// point: the swing in predicted cost caused by a ±δ relative change
	// of the variable.
	Perturbation float64
	// Relative is Perturbation divided by |p(nominal)| (0 when the
	// nominal value is 0).
	Relative float64
}

// Sensitivity ranks variables by how strongly small relative
// perturbations of their nominal values move the expression (§3.4:
// run-time tests should be formulated over the most sensitive
// variables). delta is the relative perturbation (e.g. 0.05 for ±5%).
// Variables whose nominal value is 0 are perturbed by ±delta absolute.
func Sensitivity(p Poly, nominal map[Var]float64, delta float64) ([]VarSensitivity, error) {
	base, err := p.Eval(nominal)
	if err != nil {
		return nil, err
	}
	vars := p.Vars()
	out := make([]VarSensitivity, 0, len(vars))
	for _, v := range vars {
		x := nominal[v]
		step := delta * math.Abs(x)
		if step == 0 {
			step = delta
		}
		up := cloneAssign(nominal)
		up[v] = x + step
		down := cloneAssign(nominal)
		down[v] = x - step
		pu, err := p.Eval(up)
		if err != nil {
			return nil, err
		}
		pd, err := p.Eval(down)
		if err != nil {
			return nil, err
		}
		pert := math.Abs(pu - pd)
		rel := 0.0
		if base != 0 {
			rel = pert / math.Abs(base)
		}
		out = append(out, VarSensitivity{v, pert, rel})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Perturbation != out[j].Perturbation {
			return out[i].Perturbation > out[j].Perturbation
		}
		return out[i].Var < out[j].Var
	})
	return out, nil
}

func cloneAssign(m map[Var]float64) map[Var]float64 {
	c := make(map[Var]float64, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// TopSensitive returns the k most sensitive variables of p at the
// nominal point, the candidates for run-time tests ("usually only a few
// run-time tests can be afforded", §3.4).
func TopSensitive(p Poly, nominal map[Var]float64, delta float64, k int) ([]Var, error) {
	all, err := Sensitivity(p, nominal, delta)
	if err != nil {
		return nil, err
	}
	if k > len(all) {
		k = len(all)
	}
	out := make([]Var, 0, k)
	for _, s := range all[:k] {
		out = append(out, s.Var)
	}
	return out, nil
}
