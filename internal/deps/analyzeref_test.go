package deps

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"perfpredict/internal/kernels"
	"perfpredict/internal/progen"
	"perfpredict/internal/sem"
	"perfpredict/internal/source"
)

// refAnalyze is Analyze as it was before the subscript forms were
// computed once per reference and the pair test kept its constraints
// per loop level instead of in maps keyed by variable name: the
// reference TestAnalyzeMatchesReference holds Analyze to.
func refAnalyze(tbl *sem.Table, loops []*source.DoLoop, body []source.Stmt) []Dependence {
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
			if j <= i || a.arr.Name != b.arr.Name || (!a.write && !b.write) {
				continue
			}
			if d, dependent := refTestPair(tbl, a, b, order, loopVars); dependent {
				out = append(out, d)
			}
		}
	}
	return out
}

func refTestPair(tbl *sem.Table, a, b ref, order []string, loopVars map[string]bool) (Dependence, bool) {
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
		Src:   a.arr,
		Dst:   b.arr,
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

// TestAnalyzeMatchesReference: for every loop of the kernels, the
// corpus and progen seeds 0–299, under its enclosing loops, Analyze
// returns what refAnalyze returns.
func TestAnalyzeMatchesReference(t *testing.T) {
	var progs []*source.Program
	for _, k := range kernels.All() {
		p, _, err := k.Parse()
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		progs = append(progs, p)
	}
	files, err := filepath.Glob("../../testdata/corpus/programs/*.f")
	if err != nil || len(files) == 0 {
		t.Fatalf("corpus: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		p, err := source.Parse(string(data))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		progs = append(progs, p)
	}
	for seed := int64(0); seed < 300; seed++ {
		cfg := progen.ProgramConfig{AllowIf: seed%3 == 0, AllowSubroutine: seed%2 == 0}
		p, err := source.Parse(progen.GenProgram(progen.NewRand(seed), cfg))
		if err != nil {
			t.Fatalf("progen %d: %v", seed, err)
		}
		progs = append(progs, p)
	}
	nests, deps := 0, 0
	for pi, p := range progs {
		tbl, err := sem.Analyze(p)
		if err != nil {
			continue
		}
		var walk func(list []source.Stmt, loops []*source.DoLoop)
		walk = func(list []source.Stmt, loops []*source.DoLoop) {
			for _, s := range list {
				switch x := s.(type) {
				case *source.DoLoop:
					in := append(loops[:len(loops):len(loops)], x)
					got, want := Analyze(tbl, in, x.Body), refAnalyze(tbl, in, x.Body)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("program %d, nest at %s: Analyze\n%v\nreference\n%v", pi, x.Pos, got, want)
					}
					nests, deps = nests+1, deps+len(got)
					walk(x.Body, in)
				case *source.IfStmt:
					walk(x.Then, loops)
					walk(x.Else, loops)
				}
			}
		}
		walk(p.Body, nil)
	}
	t.Logf("%d nests, %d dependences compared", nests, deps)
	if deps == 0 {
		t.Fatal("no dependence compared")
	}
}
