package sem_test

// A test-only reference: the five subscript walks that lower,
// cachemodel, comm and deps ran before they all read (*sem.Table).Affine,
// kept as they were with their identifiers prefixed "ref" (lower's
// methods take the table as their first argument), so that
// affine_diff_test.go can drive the old walks and the shared form over
// the same subscripts.

import (
	"math"

	"perfpredict/internal/sem"
	"perfpredict/internal/source"
)

// refLowerSubscript is lower.affineSubscript: it extracts (v, c, d)
// with subscript = c·v + d for a single integer scalar variable v
// (v == "" for pure constants).
func refLowerSubscript(tbl *sem.Table, e source.Expr) (v string, c, d int64, ok bool) {
	f := refLowerAffine(tbl, e)
	return f.v, f.c, f.d, f.ok
}

// refAffineForm is refLowerSubscript's answer for one node, with the
// node's constant value as sem's FoldConst computes it (folded false when it
// does not fold).
type refAffineForm struct {
	v      string
	c, d   int64
	ok     bool
	k      float64
	folded bool
}

// intConst reports whether the node folds to an integer, as sem's
// IntConst decides; d then holds the integer.
func (f refAffineForm) intConst() bool { return f.folded && f.k == math.Trunc(f.k) }

// refLowerAffine computes refLowerSubscript bottom-up. It folds
// constants in the same recursion, combining the children's values as FoldConst does for
// +, −, × and negation, so a chain of n terms costs O(n) rather than a
// FoldConst walk per level. Node kinds the recursion does not enter are
// folded by FoldConst.
func refLowerAffine(tbl *sem.Table, e source.Expr) refAffineForm {
	var f refAffineForm
	switch x := e.(type) {
	case *source.NumLit:
		f.k, f.folded = x.Value, true
	case *source.VarRef:
		sym := tbl.Lookup(x.Name)
		if sym != nil && sym.IsConst {
			f.k, f.folded = sym.ConstVal, true
		}
		if sym != nil && !sym.IsArray() && sym.Type == source.TypeInteger {
			f.v, f.c, f.ok = x.Name, 1, true
		}
	case *source.UnExpr:
		if x.Neg {
			l := refLowerAffine(tbl, x.X)
			f = refAffineForm{v: l.v, c: -l.c, d: -l.d, ok: l.ok, k: -l.k, folded: l.folded}
		}
	case *source.BinExpr:
		switch x.Kind {
		case source.BinAdd, source.BinSub:
			l, r := refLowerAffine(tbl, x.L), refLowerAffine(tbl, x.R)
			f.k, f.folded = l.k+r.k, l.folded && r.folded
			if x.Kind == source.BinSub {
				f.k, r.c, r.d = l.k-r.k, -r.c, -r.d
			}
			if !l.ok || !r.ok {
				break
			}
			f.d, f.ok = l.d+r.d, true
			switch {
			case l.v == "" || l.c == 0:
				f.v, f.c = r.v, r.c
			case r.v == "" || r.c == 0:
				f.v, f.c = l.v, l.c
			case l.v == r.v:
				if l.c+r.c != 0 {
					f.v, f.c = l.v, l.c+r.c
				}
			default:
				f.d, f.ok = 0, false
			}
		case source.BinMul:
			l, r := refLowerAffine(tbl, x.L), refLowerAffine(tbl, x.R)
			f.k, f.folded = l.k*r.k, l.folded && r.folded
			switch {
			case l.intConst():
				f.v, f.c, f.d, f.ok = r.v, l.d*r.c, l.d*r.d, r.ok
			case r.intConst():
				f.v, f.c, f.d, f.ok = l.v, r.d*l.c, r.d*l.d, l.ok
			}
		default:
			f.k, f.folded = tbl.FoldConst(e)
		}
	default:
		f.k, f.folded = tbl.FoldConst(e)
	}
	if f.intConst() {
		return refAffineForm{d: int64(f.k), ok: true, k: f.k, folded: true}
	}
	return f
}

// refCacheAffineVar is cachemodel.affineVar: it extracts (var, coeff)
// from coeff·v + const subscripts; constants return ("", 0).
func refCacheAffineVar(tbl *sem.Table, e source.Expr, loopVars map[string]bool) (string, int64, bool) {
	if _, ok := tbl.FoldConst(e); ok {
		return "", 0, true
	}
	switch x := e.(type) {
	case *source.VarRef:
		if loopVars[x.Name] {
			return x.Name, 1, true
		}
		// Loop-invariant scalar: behaves like a constant offset.
		return "", 0, true
	case *source.UnExpr:
		if !x.Neg {
			return "", 0, false
		}
		v, c, ok := refCacheAffineVar(tbl, x.X, loopVars)
		return v, -c, ok
	case *source.BinExpr:
		switch x.Kind {
		case source.BinAdd, source.BinSub:
			lv, lc, lok := refCacheAffineVar(tbl, x.L, loopVars)
			rv, rc, rok := refCacheAffineVar(tbl, x.R, loopVars)
			if !lok || !rok {
				return "", 0, false
			}
			if x.Kind == source.BinSub {
				rc = -rc
			}
			switch {
			case lv == "" && rv == "":
				return "", 0, true
			case lv == "":
				return rv, rc, true
			case rv == "":
				return lv, lc, true
			case lv == rv:
				if lc+rc == 0 {
					return "", 0, true
				}
				return lv, lc + rc, true
			default:
				return "", 0, false // two loop vars in one dim: MIV
			}
		case source.BinMul:
			if c, ok := tbl.IntConst(x.L); ok {
				v, cc, vok := refCacheAffineVar(tbl, x.R, loopVars)
				return v, c * cc, vok
			}
			if c, ok := tbl.IntConst(x.R); ok {
				v, cc, vok := refCacheAffineVar(tbl, x.L, loopVars)
				return v, c * cc, vok
			}
			return "", 0, false
		default:
			return "", 0, false
		}
	default:
		return "", 0, false
	}
}

// refCommAffineVar is comm.affineVar: it extracts (var, coeff) from
// coeff·v + const subscripts.
func refCommAffineVar(tbl *sem.Table, e source.Expr, loopVars map[string]bool) (string, int64, bool) {
	if _, ok := tbl.FoldConst(e); ok {
		return "", 0, true
	}
	switch x := e.(type) {
	case *source.VarRef:
		if loopVars[x.Name] {
			return x.Name, 1, true
		}
		return "", 0, true
	case *source.UnExpr:
		if !x.Neg {
			return "", 0, false
		}
		v, c, ok := refCommAffineVar(tbl, x.X, loopVars)
		return v, -c, ok
	case *source.BinExpr:
		switch x.Kind {
		case source.BinAdd, source.BinSub:
			lv, lc, lok := refCommAffineVar(tbl, x.L, loopVars)
			rv, rc, rok := refCommAffineVar(tbl, x.R, loopVars)
			if !lok || !rok {
				return "", 0, false
			}
			if x.Kind == source.BinSub {
				rc = -rc
			}
			switch {
			case lv == "":
				return rv, rc, true
			case rv == "":
				return lv, lc, true
			case lv == rv:
				return lv, lc + rc, true
			default:
				return "", 0, false
			}
		case source.BinMul:
			if c, ok := tbl.IntConst(x.L); ok {
				v, cc, vok := refCommAffineVar(tbl, x.R, loopVars)
				return v, c * cc, vok
			}
			if c, ok := tbl.IntConst(x.R); ok {
				v, cc, vok := refCommAffineVar(tbl, x.L, loopVars)
				return v, c * cc, vok
			}
			return "", 0, false
		default:
			return "", 0, false
		}
	default:
		return "", 0, false
	}
}

// refConstPart is comm.constPart: it extracts the constant offset of
// an affine subscript.
func refConstPart(tbl *sem.Table, e source.Expr, loopVars map[string]bool) (int64, bool) {
	if c, ok := tbl.IntConst(e); ok {
		return c, true
	}
	switch x := e.(type) {
	case *source.VarRef:
		if loopVars[x.Name] {
			return 0, true
		}
		return 0, false
	case *source.UnExpr:
		if !x.Neg {
			return 0, false
		}
		c, ok := refConstPart(tbl, x.X, loopVars)
		return -c, ok
	case *source.BinExpr:
		switch x.Kind {
		case source.BinAdd, source.BinSub:
			l, lok := refConstPart(tbl, x.L, loopVars)
			r, rok := refConstPart(tbl, x.R, loopVars)
			if !lok || !rok {
				return 0, false
			}
			if x.Kind == source.BinSub {
				r = -r
			}
			return l + r, true
		case source.BinMul:
			if c, ok := tbl.IntConst(x.L); ok {
				r, rok := refConstPart(tbl, x.R, loopVars)
				return c * r, rok
			}
			if c, ok := tbl.IntConst(x.R); ok {
				l, lok := refConstPart(tbl, x.L, loopVars)
				return c * l, lok
			}
			return 0, false
		default:
			return 0, false
		}
	default:
		return 0, false
	}
}

// refAffine is deps.affine, Σ coeff_v · v + konst over integer loop
// variables.
type refAffine struct {
	coeffs map[string]int64
	konst  int64
}

// refAffineOf is deps.affineOf: it extracts the affine form of a
// subscript over the loop variables; non-affine subscripts (or ones
// using non-loop variables whose values are unknown) return ok=false.
func refAffineOf(tbl *sem.Table, e source.Expr, loopVars map[string]bool) (refAffine, bool) {
	switch x := e.(type) {
	case *source.NumLit:
		if x.IsReal {
			return refAffine{}, false
		}
		return refAffine{coeffs: map[string]int64{}, konst: int64(x.Value)}, true
	case *source.VarRef:
		if c, ok := tbl.IntConst(x); ok {
			return refAffine{coeffs: map[string]int64{}, konst: c}, true
		}
		if loopVars[x.Name] {
			return refAffine{coeffs: map[string]int64{x.Name: 1}, konst: 0}, true
		}
		// A loop-invariant unknown scalar: treat as a symbolic constant
		// shared between the two references. Model with a pseudo-var.
		return refAffine{coeffs: map[string]int64{"$" + x.Name: 1}, konst: 0}, true
	case *source.UnExpr:
		if !x.Neg {
			return refAffine{}, false
		}
		a, ok := refAffineOf(tbl, x.X, loopVars)
		if !ok {
			return refAffine{}, false
		}
		return a.scale(-1), true
	case *source.BinExpr:
		switch x.Kind {
		case source.BinAdd, source.BinSub:
			l, ok := refAffineOf(tbl, x.L, loopVars)
			if !ok {
				return refAffine{}, false
			}
			r, ok := refAffineOf(tbl, x.R, loopVars)
			if !ok {
				return refAffine{}, false
			}
			if x.Kind == source.BinSub {
				r = r.scale(-1)
			}
			return l.add(r), true
		case source.BinMul:
			if c, ok := tbl.IntConst(x.L); ok {
				r, rok := refAffineOf(tbl, x.R, loopVars)
				if !rok {
					return refAffine{}, false
				}
				return r.scale(c), true
			}
			if c, ok := tbl.IntConst(x.R); ok {
				l, lok := refAffineOf(tbl, x.L, loopVars)
				if !lok {
					return refAffine{}, false
				}
				return l.scale(c), true
			}
			return refAffine{}, false
		default:
			return refAffine{}, false
		}
	default:
		return refAffine{}, false
	}
}

func (a refAffine) scale(c int64) refAffine {
	out := refAffine{coeffs: map[string]int64{}, konst: a.konst * c}
	for v, k := range a.coeffs {
		if k*c != 0 {
			out.coeffs[v] = k * c
		}
	}
	return out
}

func (a refAffine) add(b refAffine) refAffine {
	out := refAffine{coeffs: map[string]int64{}, konst: a.konst + b.konst}
	for v, k := range a.coeffs {
		out.coeffs[v] = k
	}
	for v, k := range b.coeffs {
		out.coeffs[v] += k
		if out.coeffs[v] == 0 {
			delete(out.coeffs, v)
		}
	}
	return out
}
