package symexpr

// RenameVars returns p with every variable renamed through m;
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
func RenameVars(p Poly, m map[Var]Var) Poly {
	if len(p.terms) == 0 || len(m) == 0 {
		return p
	}
	touched := false
	for _, t := range p.terms {
		if renames(t.mono, m) {
			touched = true
			break
		}
	}
	if !touched {
		return p
	}
	out, _ := collectFrom(func(ts []term) ([]term, error) {
		for _, t := range p.terms {
			if renames(t.mono, m) {
				t.mono = t.mono.rename(m)
			}
			ts = append(ts, t)
		}
		return ts, nil
	})
	return out
}

// renames reports whether m changes any variable of mono.
func renames(mono *monoRec, m map[Var]Var) bool {
	for _, x := range mono.ves {
		if nv, ok := m[x.v]; ok && nv != x.v {
			return true
		}
	}
	return false
}
