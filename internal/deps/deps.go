// Package deps implements data-dependence testing on array subscripts
// in loop nests — the program-analysis substrate that tells the
// transformation engine (package xform) which restructurings are legal.
// It provides the classic ZIV, strong-SIV, weak-SIV and GCD (MIV)
// subscript tests and summarizes each dependence as a direction vector
// over the enclosing loops.
package deps

import (
	"fmt"

	"perfpredict/internal/sem"
	"perfpredict/internal/source"
)

// Dir is a dependence direction for one loop level.
type Dir byte

const (
	DirLT   Dir = '<' // carried forward (distance > 0)
	DirEQ   Dir = '=' // loop independent at this level
	DirGT   Dir = '>' // would be carried backward
	DirStar Dir = '*' // unknown
)

// Kind classifies a dependence.
type Kind int

const (
	Flow   Kind = iota // write then read (true)
	Anti               // read then write
	Output             // write then write
)

func (k Kind) String() string {
	switch k {
	case Flow:
		return "flow"
	case Anti:
		return "anti"
	default:
		return "output"
	}
}

// Dependence records one array-carried dependence between two
// references inside a nest.
type Dependence struct {
	Array string
	Kind  Kind
	// Directions per enclosing loop, outermost first.
	Directions []Dir
	// Distances holds the constant dependence distance per loop when
	// known (valid where Known is true).
	Distances []int64
	Known     []bool
	// Src and Dst are the two references, rendered by String.
	Src, Dst *source.ArrayRef
}

// CarriedBy reports whether the dependence is carried by loop level
// (0-based, outermost first): the first non-'=' direction is at that
// level.
func (d Dependence) CarriedBy(level int) bool {
	for i, dir := range d.Directions {
		if i == level {
			return dir != DirEQ
		}
		if dir != DirEQ {
			return false
		}
	}
	return false
}

// LoopIndependent reports an all-'=' direction vector.
func (d Dependence) LoopIndependent() bool {
	for _, dir := range d.Directions {
		if dir != DirEQ {
			return false
		}
	}
	return true
}

func (d Dependence) String() string {
	dirs := make([]byte, len(d.Directions))
	for i, x := range d.Directions {
		dirs[i] = byte(x)
	}
	return fmt.Sprintf("%s dep on %s: %s -> %s (%s)", d.Kind, d.Array, source.ExprString(d.Src), source.ExprString(d.Dst), dirs)
}

// sameInvariants reports whether fa and fb have the same non-loop
// terms. A loop-invariant scalar has one value in both instances of a
// reference pair, so it cancels only when its coefficients match;
// otherwise the offset between the two is unknown.
func sameInvariants(fa, fb sem.Affine, loopVars map[string]bool) bool {
	covers := func(x, y sem.Affine) bool {
		for i := range x.Len() {
			if t := x.Term(i); !loopVars[t.Var] && y.Coeff(t.Var) != t.Coeff {
				return false
			}
		}
		return true
	}
	return covers(fa, fb) && covers(fb, fa)
}

// ref is one array reference occurrence.
type ref struct {
	arr   *source.ArrayRef
	write bool
	order int // textual order for kind classification
	// subs holds the affine forms of arr's subscripts, made on the
	// reference's first pair test (see forms).
	subs []subForm
}

// subForm is one subscript's affine form, ok false when not affine.
type subForm struct {
	a  sem.Affine
	ok bool
}

// forms returns r's subscripts' affine forms, computing them once for
// all the pairs r is tested in.
func (r *ref) forms(tbl *sem.Table) []subForm {
	if r.subs == nil {
		r.subs = make([]subForm, len(r.arr.Idx))
		for i, ix := range r.arr.Idx {
			r.subs[i].a, r.subs[i].ok = tbl.Affine(ix)
		}
	}
	return r.subs
}

// collectRefs walks statements gathering array references.
func collectRefs(stmts []source.Stmt, out *[]ref) {
	var walkExpr func(e source.Expr, write bool)
	walkExpr = func(e source.Expr, write bool) {
		switch x := e.(type) {
		case *source.ArrayRef:
			*out = append(*out, ref{arr: x, write: write, order: len(*out)})
			for _, ix := range x.Idx {
				walkExpr(ix, false)
			}
		case *source.BinExpr:
			walkExpr(x.L, false)
			walkExpr(x.R, false)
		case *source.UnExpr:
			walkExpr(x.X, false)
		case *source.IntrinsicCall:
			for _, a := range x.Args {
				walkExpr(a, false)
			}
		}
	}
	for _, s := range stmts {
		switch x := s.(type) {
		case *source.Assign:
			walkExpr(x.RHS, false)
			walkExpr(x.LHS, true)
		case *source.IfStmt:
			walkExpr(x.Cond, false)
			collectRefs(x.Then, out)
			collectRefs(x.Else, out)
		case *source.DoLoop:
			walkExpr(x.Lb, false)
			walkExpr(x.Ub, false)
			if x.Step != nil {
				walkExpr(x.Step, false)
			}
			collectRefs(x.Body, out)
		case *source.CallStmt:
			for _, a := range x.Args {
				walkExpr(a, false)
			}
		}
	}
}

// Analyze computes the dependences of a loop nest: loops lists the
// enclosing DO loops outermost-first, and body is the innermost body
// (which may itself contain further structure). Subscript pairs that
// defeat every test are reported with '*' directions (assumed
// dependent), keeping the analysis conservative.
func Analyze(tbl *sem.Table, loops []*source.DoLoop, body []source.Stmt) []Dependence {
	loopVars := map[string]bool{}
	var order []string
	for _, l := range loops {
		loopVars[l.Var] = true
		order = append(order, l.Var)
	}
	var refs []ref
	collectRefs(body, &refs)

	var out []Dependence
	for i := range refs {
		for j := i + 1; j < len(refs); j++ {
			a, b := &refs[i], &refs[j]
			if a.arr.Name != b.arr.Name {
				continue
			}
			if !a.write && !b.write {
				continue
			}
			d, dependent := testPair(tbl, a, b, order, loopVars)
			if dependent {
				out = append(out, d)
			}
		}
	}
	return out
}

// testPair runs the subscript tests dimension by dimension and merges
// the per-variable distance constraints.
func testPair(tbl *sem.Table, a, b *ref, order []string, loopVars map[string]bool) (Dependence, bool) {
	kind := Output
	switch {
	case a.write && !b.write:
		kind = Flow
	case !a.write && b.write:
		kind = Anti
	}
	d := Dependence{Array: a.arr.Name, Kind: kind, Src: a.arr, Dst: b.arr}
	// lv[k] constrains the loop variable order[k]: dist its required
	// distance when has, star an unknown direction; in marks the
	// variables of the dimension under test.
	type level struct {
		dist          int64
		has, star, in bool
	}
	lv := make([]level, len(order))
	levelOf := func(v string) int {
		for k, o := range order {
			if o == v {
				return k
			}
		}
		return -1
	}

	if len(a.arr.Idx) != len(b.arr.Idx) {
		// Rank confusion: be conservative.
		return d.allStar(order), true
	}
	fas, fbs := a.forms(tbl), b.forms(tbl)
	for dim := range fas {
		fa, okA := fas[dim].a, fas[dim].ok
		fb, okB := fbs[dim].a, fbs[dim].ok
		if !okA || !okB {
			// Non-affine: unknown in every loop variable.
			for k := range lv {
				lv[k].star = true
			}
			continue
		}
		// The two references occur in distinct iteration instances:
		// fa(I1) = fb(I2).
		unknownOffset := !sameInvariants(fa, fb, loopVars)
		offset := fa.Const - fb.Const // a·I1 + c1 = a·I2 + c2 → a·Δ = c1−c2
		nvars, only := 0, -1
		for k := range lv {
			lv[k].in = false
		}
		for _, f := range []sem.Affine{fa, fb} {
			for i := range f.Len() {
				if k := levelOf(f.Term(i).Var); k >= 0 && !lv[k].in {
					lv[k].in, nvars, only = true, nvars+1, k
				}
			}
		}
		switch nvars {
		case 0:
			// ZIV: constant subscripts (possibly with shared symbolic
			// parts).
			if unknownOffset {
				continue // unknown offset constrains no loop var
			}
			if offset != 0 {
				return Dependence{}, false // provably independent
			}
		case 1:
			v := order[only]
			a1, a2 := fa.Coeff(v), fb.Coeff(v)
			if a1 != a2 || a1 == 0 || unknownOffset {
				// Weak SIV or unknown offset: direction unknown.
				lv[only].star = true
				continue
			}
			// Strong SIV: a·Δv = c1 − c2 with Δv = I2 − I1.
			if offset%a1 != 0 {
				return Dependence{}, false // non-integer distance
			}
			delta := offset / a1
			if lv[only].has && lv[only].dist != delta {
				return Dependence{}, false // inconsistent across dims
			}
			lv[only].has, lv[only].dist = true, delta
		default:
			// MIV: GCD test over all instance coefficients.
			g := int64(0)
			for k := range lv {
				if lv[k].in {
					g = gcd(g, abs64(fa.Coeff(order[k])))
					g = gcd(g, abs64(fb.Coeff(order[k])))
				}
			}
			if g != 0 && !unknownOffset && offset%g != 0 {
				return Dependence{}, false
			}
			for k := range lv {
				if lv[k].in {
					lv[k].star = true
				}
			}
		}
	}

	for _, v := range order {
		st := lv[levelOf(v)]
		switch {
		case st.has && !st.star:
			delta := st.dist
			d.Distances = append(d.Distances, delta)
			d.Known = append(d.Known, true)
			switch {
			case delta > 0:
				d.Directions = append(d.Directions, DirLT)
			case delta < 0:
				d.Directions = append(d.Directions, DirGT)
			default:
				d.Directions = append(d.Directions, DirEQ)
			}
		case st.star:
			d.Distances = append(d.Distances, 0)
			d.Known = append(d.Known, false)
			d.Directions = append(d.Directions, DirStar)
		default:
			// Variable unconstrained by any subscript: the references
			// coincide for every value → '=' at this level... only when
			// the variable appears in neither subscript. Distance 0.
			d.Distances = append(d.Distances, 0)
			d.Known = append(d.Known, true)
			d.Directions = append(d.Directions, DirEQ)
		}
	}
	// Normalize: a dependence whose leading non-'=' direction is '>'
	// runs source→sink backwards; flip it (and its kind).
	if leadingGT(d.Directions) {
		d = flip(d)
	}
	return d, true
}

func (d Dependence) allStar(order []string) Dependence {
	for range order {
		d.Directions = append(d.Directions, DirStar)
		d.Distances = append(d.Distances, 0)
		d.Known = append(d.Known, false)
	}
	return d
}

func leadingGT(dirs []Dir) bool {
	for _, d := range dirs {
		switch d {
		case DirEQ:
			continue
		case DirGT:
			return true
		default:
			return false
		}
	}
	return false
}

func flip(d Dependence) Dependence {
	out := d
	out.Src, out.Dst = d.Dst, d.Src
	switch d.Kind {
	case Flow:
		out.Kind = Anti
	case Anti:
		out.Kind = Flow
	}
	out.Directions = append([]Dir(nil), d.Directions...)
	out.Distances = append([]int64(nil), d.Distances...)
	for i, dir := range out.Directions {
		switch dir {
		case DirLT:
			out.Directions[i] = DirGT
		case DirGT:
			out.Directions[i] = DirLT
		}
		out.Distances[i] = -out.Distances[i]
	}
	return out
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// InterchangeLegal reports whether swapping loop levels i and j
// (0-based, outermost first) preserves every dependence: after the
// swap no direction vector may have its first non-'=' entry become
// '>' (or be a '*' that could be '>').
func InterchangeLegal(dependences []Dependence, i, j int) bool {
	for _, d := range dependences {
		dirs := append([]Dir(nil), d.Directions...)
		if i < len(dirs) && j < len(dirs) {
			dirs[i], dirs[j] = dirs[j], dirs[i]
		}
		for _, dir := range dirs {
			if dir == DirEQ {
				continue
			}
			if dir == DirGT || dir == DirStar {
				return false
			}
			break
		}
	}
	return true
}

// FusionLegal reports whether two adjacent loops with identical
// headers may be fused. In the original program every iteration of a
// precedes every iteration of b; after fusion, b's iteration i runs
// before a's iterations > i. Fusion is therefore illegal when some
// b-body reference touches a location an a-body reference (with at
// least one of the two writing) touches at a strictly later iteration
// — or when the subscripts defeat analysis (conservative).
func FusionLegal(tbl *sem.Table, a, b *source.DoLoop) bool {
	if a.Var != b.Var {
		return false
	}
	if source.ExprString(a.Lb) != source.ExprString(b.Lb) ||
		source.ExprString(a.Ub) != source.ExprString(b.Ub) ||
		stepString(a) != stepString(b) {
		return false
	}
	loopVars := map[string]bool{a.Var: true}
	var refsA, refsB []ref
	collectRefs(a.Body, &refsA)
	collectRefs(b.Body, &refsB)
	for _, ra := range refsA {
		for _, rb := range refsB {
			if ra.arr.Name != rb.arr.Name || (!ra.write && !rb.write) {
				continue
			}
			if !fusionSafePair(tbl, ra.arr, rb.arr, a.Var, loopVars) {
				return false
			}
		}
	}
	return true
}

func stepString(l *source.DoLoop) string {
	if l.Step == nil {
		return "1"
	}
	return source.ExprString(l.Step)
}

// fusionSafePair checks that every solution of fa(I1) = fb(I2) has
// I1 ≤ I2: the a-loop access never lands on a location the b-loop
// access already consumed at an earlier fused iteration.
func fusionSafePair(tbl *sem.Table, ra, rb *source.ArrayRef, v string, loopVars map[string]bool) bool {
	if len(ra.Idx) != len(rb.Idx) {
		return false
	}
	// Every dimension must agree; one dimension proving independence
	// clears the pair, one dimension proving Δ ≤ 0 with the rest
	// consistent clears it too.
	deltaKnown := false
	var delta int64
	for dim := range ra.Idx {
		fa, okA := tbl.Affine(ra.Idx[dim])
		fb, okB := tbl.Affine(rb.Idx[dim])
		if !okA || !okB {
			return false // non-affine: conservative
		}
		if !sameInvariants(fa, fb, loopVars) {
			return false // unknown symbolic offset
		}
		a1, a2 := fa.Coeff(v), fb.Coeff(v)
		offset := fa.Const - fb.Const
		switch {
		case a1 == 0 && a2 == 0:
			if offset != 0 {
				return true // provably disjoint locations
			}
		case a1 == a2:
			// a·I1 + c1 = a·I2 + c2 → I1 − I2 = (c2 − c1)/a = −offset/a
			if offset%a1 != 0 {
				return true // never equal
			}
			d := -offset / a1
			if deltaKnown && d != delta {
				return true // inconsistent across dims: independent
			}
			deltaKnown, delta = true, d
		default:
			return false // weak SIV: conservative
		}
	}
	if !deltaKnown {
		// Same fixed location every iteration for both loops:
		// reordering changes which write a read sees → unsafe.
		return false
	}
	return delta <= 0
}

// CarriedDeps filters dependences carried by the given loop level.
func CarriedDeps(ds []Dependence, level int) []Dependence {
	var out []Dependence
	for _, d := range ds {
		if d.CarriedBy(level) || (level < len(d.Directions) && d.Directions[level] == DirStar) {
			out = append(out, d)
		}
	}
	return out
}
