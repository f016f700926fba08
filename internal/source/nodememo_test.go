package source_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"perfpredict/internal/progen"
	"perfpredict/internal/source"
)

// allStmts lists every statement of a list, parents before children.
func allStmts(list []source.Stmt, out []source.Stmt) []source.Stmt {
	for _, s := range list {
		out = append(out, s)
		switch x := s.(type) {
		case *source.DoLoop:
			out = allStmts(x.Body, out)
		case *source.IfStmt:
			out = allStmts(x.Then, out)
			out = allStmts(x.Else, out)
		}
	}
	return out
}

// TestNodeMemoMatchesUnmemoised: for every statement of the corpus and
// of generated programs, the memoised digest equals FingerprintStmt,
// whichever order the memo is filled in; lists and whole programs
// agree too.
func TestNodeMemoMatchesUnmemoised(t *testing.T) {
	progs := map[string]*source.Program{}
	files, err := filepath.Glob("../../testdata/corpus/programs/*.f")
	if err != nil || len(files) == 0 {
		t.Fatalf("corpus: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		p, err := source.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		progs[filepath.Base(f)] = p
	}
	for seed := int64(1); seed <= 100; seed++ {
		src := progen.GenProgram(progen.NewRand(seed), progen.ProgramConfig{})
		p, err := source.Parse(src)
		if err != nil {
			t.Fatalf("progen seed %d: %v", seed, err)
		}
		progs[fmt.Sprintf("progen%d", seed)] = p
	}
	checked := 0
	for name, p := range progs {
		stmts := allStmts(p.Body, nil)
		topDown := source.NewNodeMemo()
		bottomUp := source.NewNodeMemo()
		for i := len(stmts) - 1; i >= 0; i-- {
			bottomUp.Stmt(stmts[i])
		}
		for _, s := range stmts {
			want := source.FingerprintStmt(s)
			for _, m := range []*source.NodeMemo{topDown, bottomUp, nil} {
				if got := m.Stmt(s); got != want {
					t.Fatalf("%s: memoised digest of %T at %v differs", name, s, s.StmtPos())
				}
			}
			checked++
		}
		if topDown.Stmts(p.Body) != source.FingerprintStmts(p.Body) {
			t.Fatalf("%s: memoised list digest differs", name)
		}
		if topDown.Program(p) != source.FingerprintProgram(p) {
			t.Fatalf("%s: memoised program digest differs", name)
		}
	}
	if checked < 900 {
		t.Fatalf("only %d statements checked", checked)
	}
}

// TestDigestIsMerkle: a loop's digest depends on its body only through
// the body's list digest, so two loops with equal headers and bodies
// of equal digest hash equal even when their nodes are distinct, and a
// change deep in a body changes every enclosing digest.
func TestDigestIsMerkle(t *testing.T) {
	parse := func(src string) *source.Program {
		p, err := source.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	const tmpl = `
program m
  integer i, j, n
  real a(10,10)
  do i = 1, n
    do j = 1, n
      a(i,j) = a(i,j) + %s
    end do
  end do
end
`
	a := parse(fmt.Sprintf(tmpl, "1.0"))
	b := parse(fmt.Sprintf(tmpl, "1.0"))
	c := parse(fmt.Sprintf(tmpl, "2.0"))
	if source.FingerprintStmt(a.Body[0]) != source.FingerprintStmt(b.Body[0]) {
		t.Error("equal nests hash differently")
	}
	if source.FingerprintStmt(a.Body[0]) == source.FingerprintStmt(c.Body[0]) {
		t.Error("a change two levels down left the outer digest unchanged")
	}
	inner := a.Body[0].(*source.DoLoop)
	if source.FingerprintStmts(inner.Body) == source.FingerprintStmts(c.Body[0].(*source.DoLoop).Body) {
		t.Error("a change one level down left the body digest unchanged")
	}
}
