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
	// Src and Dst are the textual references, for diagnostics.
	Src, Dst string
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
	return fmt.Sprintf("%s dep on %s: %s -> %s (%s)", d.Kind, d.Array, d.Src, d.Dst, dirs)
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
	for i, a := range refs {
		for j, b := range refs {
			if j <= i {
				continue
			}
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
func testPair(tbl *sem.Table, a, b ref, order []string, loopVars map[string]bool) (Dependence, bool) {
	kind := Output
	switch {
	case a.write && !b.write:
		kind = Flow
	case !a.write && b.write:
		kind = Anti
	}
	d := Dependence{
		Array: a.arr.Name,
		Kind:  kind,
		Src:   source.ExprString(a.arr),
		Dst:   source.ExprString(b.arr),
	}
	// dist[v]: required distance for v; has[v]: constraint present.
	dist := map[string]int64{}
	has := map[string]bool{}
	star := map[string]bool{}

	if len(a.arr.Idx) != len(b.arr.Idx) {
		// Rank confusion: be conservative.
		return d.allStar(order), true
	}
	for dim := range a.arr.Idx {
		fa, okA := tbl.Affine(a.arr.Idx[dim])
		fb, okB := tbl.Affine(b.arr.Idx[dim])
		if !okA || !okB {
			// Non-affine: unknown in every loop variable.
			for _, v := range order {
				star[v] = true
			}
			continue
		}
		// The two references occur in distinct iteration instances:
		// fa(I1) = fb(I2).
		unknownOffset := !sameInvariants(fa, fb, loopVars)
		offset := fa.Const - fb.Const // a·I1 + c1 = a·I2 + c2 → a·Δ = c1−c2
		vars := map[string]bool{}
		for _, f := range []sem.Affine{fa, fb} {
			for i := range f.Len() {
				if v := f.Term(i).Var; loopVars[v] {
					vars[v] = true
				}
			}
		}
		switch len(vars) {
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
			var v string
			for vv := range vars {
				v = vv
			}
			a1, a2 := fa.Coeff(v), fb.Coeff(v)
			if a1 != a2 || a1 == 0 || unknownOffset {
				// Weak SIV or unknown offset: direction unknown.
				star[v] = true
				continue
			}
			// Strong SIV: a·Δv = c1 − c2 with Δv = I2 − I1.
			if offset%a1 != 0 {
				return Dependence{}, false // non-integer distance
			}
			delta := offset / a1
			if has[v] && dist[v] != delta {
				return Dependence{}, false // inconsistent across dims
			}
			has[v], dist[v] = true, delta
		default:
			// MIV: GCD test over all instance coefficients.
			g := int64(0)
			for v := range vars {
				g = gcd(g, abs64(fa.Coeff(v)))
				g = gcd(g, abs64(fb.Coeff(v)))
			}
			if g != 0 && !unknownOffset && offset%g != 0 {
				return Dependence{}, false
			}
			for v := range vars {
				star[v] = true
			}
		}
	}

	for _, v := range order {
		switch {
		case has[v] && !star[v]:
			delta := dist[v]
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
		case star[v]:
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
