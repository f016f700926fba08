package sem

import (
	"math"

	"perfpredict/internal/source"
)

// Term is one variable of an affine form with its coefficient.
type Term struct {
	Var   string
	Coeff int64
}

// Affine is the form Σ cᵥ·v + Const of an integer expression over its
// integer scalar variables: the one fact about a subscript that
// lowering, the memory and communication costs and the dependence test
// read. Its terms have nonzero coefficients and are sorted by name. The
// first is held inline, so the form of an expression in at most one
// variable allocates nothing.
type Affine struct {
	Const int64
	first Term
	rest  []Term
}

// Len returns the number of terms.
func (a Affine) Len() int {
	if a.first.Var == "" {
		return 0
	}
	return 1 + len(a.rest)
}

// Term returns the i'th term in name order.
func (a Affine) Term(i int) Term {
	if i == 0 {
		return a.first
	}
	return a.rest[i-1]
}

// Coeff returns v's coefficient, 0 when v does not occur.
func (a Affine) Coeff(v string) int64 {
	for i := range a.Len() {
		if t := a.Term(i); t.Var == v {
			return t.Coeff
		}
	}
	return 0
}

// LoopVar returns the one loop variable of the form with its
// coefficient ("" and 0 when none occurs), taking every other variable
// for a constant offset. It reports false when two loop variables
// occur.
func (a Affine) LoopVar(loopVars map[string]bool) (v string, c int64, ok bool) {
	for i := range a.Len() {
		t := a.Term(i)
		if !loopVars[t.Var] {
			continue
		}
		if v != "" {
			return "", 0, false
		}
		v, c = t.Var, t.Coeff
	}
	return v, c, true
}

func (a Affine) scale(c int64) Affine {
	switch c {
	case 0:
		return Affine{}
	case 1:
		return a
	}
	out := Affine{Const: a.Const * c, first: Term{a.first.Var, a.first.Coeff * c}}
	if len(a.rest) > 0 {
		out.rest = make([]Term, len(a.rest))
		for i, t := range a.rest {
			out.rest[i] = Term{t.Var, t.Coeff * c}
		}
	}
	return out
}

// add returns a + s·b, merging the sorted terms and dropping those that
// cancel.
func (a Affine) add(b Affine, s int64) Affine {
	b = b.scale(s)
	out := Affine{Const: a.Const + b.Const}
	na, nb := a.Len(), b.Len()
	switch {
	case nb == 0:
		out.first, out.rest = a.first, a.rest
	case na == 0:
		out.first, out.rest = b.first, b.rest
	case na == 1 && nb == 1 && a.first.Var == b.first.Var:
		if c := a.first.Coeff + b.first.Coeff; c != 0 {
			out.first = Term{a.first.Var, c}
		}
	default:
		terms := make([]Term, 0, na+nb)
		i, j := 0, 0
		for i < na || j < nb {
			switch {
			case j == nb || i < na && a.Term(i).Var < b.Term(j).Var:
				terms = append(terms, a.Term(i))
				i++
			case i == na || b.Term(j).Var < a.Term(i).Var:
				terms = append(terms, b.Term(j))
				j++
			default:
				if c := a.Term(i).Coeff + b.Term(j).Coeff; c != 0 {
					terms = append(terms, Term{a.Term(i).Var, c})
				}
				i, j = i+1, j+1
			}
		}
		if len(terms) > 0 {
			out.first, out.rest = terms[0], terms[1:]
		}
	}
	return out
}

// affineNode is the form of one node during the walk, with the node's
// constant value as FoldConst computes it (folded false when it does
// not fold).
type affineNode struct {
	a      Affine
	ok     bool
	k      float64
	folded bool
}

// Affine returns e's affine form over the integer scalar variables,
// or false when e is not affine in them. It folds constants in the
// same bottom-up recursion, combining the children's values as
// FoldConst does for +, −, × and negation, so a chain of n terms costs
// O(n); the node kinds it does not enter (/, **, intrinsics,
// relationals) are folded by FoldConst. Any node that folds to an
// integer is a constant, and a product is affine only when one side
// folds to an integer.
func (t *Table) Affine(e source.Expr) (Affine, bool) {
	n := t.affine(e)
	return n.a, n.ok
}

func (t *Table) affine(e source.Expr) affineNode {
	var n affineNode
	switch x := e.(type) {
	case *source.NumLit:
		n.k, n.folded = x.Value, true
	case *source.VarRef:
		sym := t.Lookup(x.Name)
		if sym != nil && sym.IsConst {
			n.k, n.folded = sym.ConstVal, true
		}
		if sym != nil && !sym.IsArray() && sym.Type == source.TypeInteger {
			n.a.first, n.ok = Term{x.Name, 1}, true
		}
	case *source.UnExpr:
		if x.Neg {
			n = t.affine(x.X)
			n.a, n.k = n.a.scale(-1), -n.k
		}
	case *source.BinExpr:
		switch x.Kind {
		case source.BinAdd, source.BinSub:
			l, r := t.affine(x.L), t.affine(x.R)
			s := int64(1)
			n.k, n.folded = l.k+r.k, l.folded && r.folded
			if x.Kind == source.BinSub {
				n.k, s = l.k-r.k, -1
			}
			if l.ok && r.ok {
				n.a, n.ok = l.a.add(r.a, s), true
			}
		case source.BinMul:
			l, r := t.affine(x.L), t.affine(x.R)
			n.k, n.folded = l.k*r.k, l.folded && r.folded
			switch {
			case l.intConst():
				n.a, n.ok = r.a.scale(l.a.Const), r.ok
			case r.intConst():
				n.a, n.ok = l.a.scale(r.a.Const), l.ok
			}
		default:
			n.k, n.folded = t.FoldConst(e)
		}
	default:
		n.k, n.folded = t.FoldConst(e)
	}
	if n.intConst() {
		return affineNode{a: Affine{Const: int64(n.k)}, ok: true, k: n.k, folded: true}
	}
	return n
}

// intConst reports whether the node folds to an integer, as IntConst
// decides; its form is then that constant.
func (n affineNode) intConst() bool { return n.folded && n.k == math.Trunc(n.k) }
