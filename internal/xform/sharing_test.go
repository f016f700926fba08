package xform

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"perfpredict/internal/kernels"
	"perfpredict/internal/machine"
	"perfpredict/internal/sem"
	"perfpredict/internal/source"
)

// snap records what a program must keep: its printed form and digest.
type snap struct {
	text string
	fp   source.Fingerprint
}

func snapOf(p *source.Program) snap {
	return snap{source.PrintProgram(p), source.FingerprintProgram(p)}
}

// moveSubjects returns the embedded kernels, the corpus programs and
// a fusible sibling pair, by name.
func moveSubjects(t *testing.T) map[string]*source.Program {
	t.Helper()
	out := map[string]*source.Program{}
	for _, k := range kernels.All() {
		p, _, err := k.Parse()
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		out[k.Name] = p
	}
	files, err := filepath.Glob("../../testdata/corpus/programs/*.f")
	if err != nil || len(files) == 0 {
		t.Fatalf("corpus: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(f)] = parse(t, string(src))
	}
	out["fusepair"] = parse(t, `
program fusepair
  integer i, n
  real a(100), b(100), c(100)
  do i = 1, n
    a(i) = b(i) + 1.0
  end do
  do i = 1, n
    c(i) = a(i) * 2.0
  end do
end
`)
	return out
}

// checkSameMove applies mv to p by path-copying and to the deep-clone
// twin q by the oracle, and requires the same outcome.
func checkSameMove(t *testing.T, name string, p, q *source.Program, mv Move) *source.Program {
	t.Helper()
	got, err := Apply(p, mv)
	want, werr := cloneApply(q, mv)
	if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
		t.Fatalf("%s %v: error %v, deep clone %v", name, mv, err, werr)
	}
	if err != nil {
		return nil
	}
	if g, w := snapOf(got), snapOf(want); g != w {
		t.Fatalf("%s %v: path copy differs from the deep clone\n%s\nwant\n%s", name, mv, g.text, w.text)
	}
	checkDistinctStmts(t, name+" "+mv.String(), got)
	return got
}

// checkDistinctStmts requires every statement node to occur once in p.
func checkDistinctStmts(t *testing.T, name string, p *source.Program) {
	t.Helper()
	seen := map[source.Stmt]bool{}
	var walk func([]source.Stmt)
	walk = func(list []source.Stmt) {
		for _, s := range list {
			if seen[s] {
				t.Fatalf("%s: statement %T at %v occurs twice", name, s, s.StmtPos())
			}
			seen[s] = true
			switch x := s.(type) {
			case *source.DoLoop:
				walk(x.Body)
			case *source.IfStmt:
				walk(x.Then)
				walk(x.Else)
			}
		}
	}
	walk(p.Body)
}

// TestMovesMatchDeepClone: every move of every kernel and corpus
// program, and every move of each resulting child, produces exactly the
// program the deep-clone implementation does, while leaving the parent
// — and, once all siblings are built, every child — unchanged.
func TestMovesMatchDeepClone(t *testing.T) {
	opt := SearchOptions{}
	opt.defaults()
	kinds := map[string]bool{}
	for name, p := range moveSubjects(t) {
		q := source.CloneProgram(p)
		type child struct {
			got, twin *source.Program
			was       snap
		}
		var kids []child
		before := snapOf(p)
		for _, mv := range Moves(p, opt) {
			got := checkSameMove(t, name, p, q, mv)
			if got == nil {
				continue
			}
			kinds[mv.Kind] = true
			twin, _ := cloneApply(q, mv)
			kids = append(kids, child{got, twin, snapOf(got)})
		}
		if snapOf(p) != before {
			t.Fatalf("%s: applying its moves changed the parent", name)
		}
		for _, k := range kids {
			for _, mv := range Moves(k.got, opt) {
				checkSameMove(t, name+" child", k.got, k.twin, mv)
			}
		}
		if snapOf(p) != before {
			t.Fatalf("%s: applying its grandchildren's moves changed it", name)
		}
		for _, k := range kids {
			if snapOf(k.got) != k.was {
				t.Fatalf("%s: building sibling variants changed a child", name)
			}
		}
	}
	for _, k := range []string{"unroll", "interchange", "tile", "distribute", "fuse"} {
		if !kinds[k] {
			t.Errorf("no legal %s move among the subjects", k)
		}
	}
}

// TestMovesShareUntouchedStatements: a move copies only the path to
// the nest it rewrites; the statements before that nest keep their
// identity, and so do the statements of the rewritten loop's body.
func TestMovesShareUntouchedStatements(t *testing.T) {
	p := parse(t, `
program share
  integer i, j, n
  real a(100), b(100), c(100,100), s
  s = 0.0
  do i = 1, n
    a(i) = b(i) + 1.0
    s = s + a(i)
  end do
  do i = 1, n
    do j = 1, n
      c(i,j) = c(i,j) + s
    end do
  end do
end
`)
	unrolled, err := Unroll(p, Path{1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if unrolled.Body[0] != p.Body[0] || unrolled.Body[3] != p.Body[2] {
		t.Error("unroll copied statements it did not rewrite")
	}
	loop := p.Body[1].(*source.DoLoop)
	main := unrolled.Body[1].(*source.DoLoop)
	if main.Body[0] != loop.Body[0] || main.Body[1] != loop.Body[1] {
		t.Error("unroll copied the first body copy instead of sharing it")
	}
	tiled, err := Tile(p, Path{2, 0}, 16)
	if err != nil {
		t.Fatal(err)
	}
	inner := p.Body[2].(*source.DoLoop).Body[0].(*source.DoLoop)
	tiledInner := tiled.Body[2].(*source.DoLoop).Body[0].(*source.DoLoop).Body[0].(*source.DoLoop)
	if tiled.Body[1] != p.Body[1] || tiledInner.Body[0] != inner.Body[0] {
		t.Error("tile copied statements it did not rewrite")
	}
	if len(tiled.Decls) != len(p.Decls)+1 {
		t.Errorf("tile declared %d names, want %d", len(tiled.Decls), len(p.Decls)+1)
	}
}

// TestDistributeFuseSiblingsDoNotAlias: distribution leaves the two
// halves of a body, and fusion appends one loop's body to another's. A
// half that kept the parent's backing array would let the fusion of a
// rewritten sibling write into the parent; the whole chain must leave
// every ancestor unchanged and match the deep clone.
func TestDistributeFuseSiblingsDoNotAlias(t *testing.T) {
	p := parse(t, `
program dif
  integer i, j, k, n
  real a(64), b(64,64), c(64)
  do i = 1, n
    a(i) = c(i) + 1.0
    do j = 1, n
      do k = 1, n
        b(j,k) = b(j,k) + 2.0
      end do
    end do
  end do
end
`)
	q := source.CloneProgram(p)
	chain := []Move{
		{Kind: "distribute", Path: Path{0}, Param: 1},
		{Kind: "interchange", Path: Path{1, 0}},
		{Kind: "fuse", Path: Path{0}},
	}
	var ancestors []*source.Program
	var was []snap
	cur, twin := p, q
	for _, mv := range chain {
		ancestors = append(ancestors, cur)
		was = append(was, snapOf(cur))
		next := checkSameMove(t, "dif", cur, twin, mv)
		if next == nil {
			t.Fatalf("%v is illegal", mv)
		}
		twin, _ = cloneApply(twin, mv)
		cur = next
		// Sibling variants of the same parent must not disturb it.
		for _, sib := range Moves(ancestors[len(ancestors)-1], SearchOptions{UnrollFactors: []int{2}, TileSizes: []int{16}}) {
			_, _ = Apply(ancestors[len(ancestors)-1], sib)
		}
	}
	for i, a := range ancestors {
		if snapOf(a) != was[i] {
			t.Fatalf("step %d's input changed under its descendants", i)
		}
	}
}

// TestTileSiblingsDoNotAlias: each tiling declares its control
// variable in a fresh declaration list. Appending to the parent's list
// would, when it has spare capacity, let one sibling's declaration
// overwrite another's.
func TestTileSiblingsDoNotAlias(t *testing.T) {
	p := parse(t, `
program tiles
  integer i, j, n
  real a(100), b(100)
  do i = 1, n
    do j = 1, n
      a(j) = a(j) + b(i)
    end do
  end do
end
`)
	p.Decls = append(make([]*source.Decl, 0, len(p.Decls)+4), p.Decls...)
	before := snapOf(p)
	outer, err := Tile(p, Path{0}, 16)
	if err != nil {
		t.Fatal(err)
	}
	outerWas := snapOf(outer)
	if _, err := Tile(p, Path{0, 0}, 16); err != nil {
		t.Fatal(err)
	}
	if snapOf(outer) != outerWas || snapOf(p) != before {
		t.Fatal("tiling one loop changed a sibling variant's declarations")
	}
}

// TestSearchFreezesSharedStates runs a 4-worker search and records the
// digest of every state it pushes, taken when the state was built.
// Children share subtrees with their parents and siblings, and workers
// build and price them concurrently; if anything wrote a shared node,
// a digest recomputed after the search (with a fresh memo, and without
// one) would differ.
func TestSearchFreezesSharedStates(t *testing.T) {
	m := machine.NewPOWER1()
	subjects := moveSubjects(t)
	for _, name := range []string{"matmul", "jacobi", "f6", "fusepair", "prog001.f", "prog036.f"} {
		p, ok := subjects[name]
		if !ok {
			t.Fatalf("no subject %s", name)
		}
		type pushed struct {
			prog *source.Program
			fp   source.Fingerprint
		}
		var mu sync.Mutex
		var states []pushed
		_, err := search(context.Background(), p, SearchOptions{Machine: m, Workers: 4, MaxNodes: 20},
			func(prog *source.Program, _ *sem.Table, fp source.Fingerprint) {
				mu.Lock()
				states = append(states, pushed{prog, fp})
				mu.Unlock()
			})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(states) < 5 {
			t.Fatalf("%s: only %d states pushed", name, len(states))
		}
		fresh := source.NewNodeMemo()
		for _, st := range states {
			if got := fresh.Program(st.prog); got != st.fp {
				t.Fatalf("%s: a pushed state's digest changed during the search", name)
			}
			if got := source.FingerprintProgram(st.prog); got != st.fp {
				t.Fatalf("%s: the memoised digest differs from FingerprintProgram", name)
			}
		}
	}
}
