package aggregate

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"perfpredict/internal/kernels"
	"perfpredict/internal/source"
)

// callsProgram puts CALLs at every position a run can hold one: first,
// mid-run, last, inside an IF branch and after a nested loop.
const callsProgram = `program calls
  integer i, j, n
  real a(10), s
  s = 1.0
  call setup(s)
  s = s + 1.0
  do i = 1, n
    call tick(i)
    a(i) = s
    call tock(i)
    s = s + a(i)
    if (i .le. 2) then
      a(i) = a(i) + 1.0
      call note(i)
    end if
    do j = 1, n
      s = s + a(j)
    end do
    call after(i)
  end do
end
`

// runStarts maps the first statement of every straight-line run
// source.RunEnd cuts from list, searched through loop bodies and IF
// branches, to the run's length. Statements after a RETURN are never
// priced.
func runStarts(list []source.Stmt, out map[source.Stmt]int) {
	for i := 0; i < len(list); {
		if j := source.RunEnd(list, i, nil); j > i {
			out[list[i]] = j - i
			i = j
			continue
		}
		switch x := list[i].(type) {
		case *source.DoLoop:
			runStarts(x.Body, out)
		case *source.IfStmt:
			runStarts(x.Then, out)
			runStarts(x.Else, out)
		case *source.ReturnStmt:
			return
		}
		i++
	}
}

// corpusPricings returns the corpus programs plus callsProgram by
// name, and the golden table's eight targets in order.
func corpusPricings(t *testing.T) (map[string]string, []string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(corpusDir, "golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]map[string]string
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	srcs := map[string]string{"calls": callsProgram}
	targets := map[string]bool{}
	for prog, row := range golden {
		src, err := os.ReadFile(filepath.Join(corpusDir, "programs", prog))
		if err != nil {
			t.Fatal(err)
		}
		srcs[prog] = string(src)
		for name := range row {
			targets[name] = true
		}
	}
	names := make([]string, 0, len(targets))
	for name := range targets {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(srcs) < 51 || len(names) != 8 {
		t.Fatalf("%d programs on %d targets, want 50 corpus programs plus one on 8 targets", len(srcs), len(names))
	}
	return srcs, names
}

// TestSegmentationMatchesRunEnd: through a fresh lowering memo, the
// estimator lowers exactly the straight-line runs source.RunEnd cuts —
// each run once, by identity of its first statement and by length,
// none other — for every corpus program on every golden target and for
// a program with CALLs placed where a wrong rule would split or merge a
// run. No library table is given, so no CALL is cut out of its run.
func TestSegmentationMatchesRunEnd(t *testing.T) {
	srcs, names := corpusPricings(t)
	checked := 0
	for _, name := range names {
		m := corpusTarget(t, name)
		for prog, src := range srcs {
			p, tbl := parseAnalyze(t, src)
			e := NewWithCaches(tbl, m, DefaultOptions(), Caches{Lower: NewLowerMemo()})
			if _, err := e.Program(p); err != nil {
				t.Fatalf("%s on %s: %v", prog, name, err)
			}
			want := map[source.Stmt]int{}
			runStarts(p.Body, want)
			got := map[source.Stmt]int{}
			for k, ents := range e.lowered.entries {
				if k.kind != lowerSegment {
					continue
				}
				for _, ent := range ents {
					if prev, dup := got[ent.stmts[0]]; dup {
						t.Errorf("%s on %s: runs of %d and %d statements both start at %s", prog, name, prev, len(ent.stmts), ent.stmts[0].StmtPos())
					}
					got[ent.stmts[0]] = len(ent.stmts)
				}
			}
			for first, n := range got {
				w, ok := want[first]
				switch {
				case !ok:
					t.Errorf("%s on %s: lowered a run starting at %s (%d statements), which starts no run", prog, name, first.StmtPos(), n)
				case n != w:
					t.Errorf("%s on %s: lowered %d statements from %s, the run holds %d", prog, name, n, first.StmtPos(), w)
				}
			}
			for first, w := range want {
				if _, ok := got[first]; !ok {
					t.Errorf("%s on %s: the run of %d statements at %s was never lowered", prog, name, w, first.StmtPos())
				}
			}
			checked += len(got)
		}
	}
	t.Logf("%d lowered runs checked", checked)
}

// TestNoSegmentLoweredTwice: a pricing without a lowering memo runs as
// many translator passes as a fresh shared memo records misses on the
// same pricing, so it lowers no segment, condition or bound twice —
// the branch shape tests take the shape of a body's leading run from
// the pricing that lowered it. Both price the same. Every corpus
// program and every kernel on every golden target.
func TestNoSegmentLoweredTwice(t *testing.T) {
	srcs, names := corpusPricings(t)
	for _, k := range kernels.All() {
		srcs["kernel "+k.Name] = k.Src
	}
	passes := 0
	for _, name := range names {
		m := corpusTarget(t, name)
		for prog, src := range srcs {
			p, tbl := parseAnalyze(t, src)
			bare := New(tbl, m, DefaultOptions())
			got, err := bare.Program(p)
			if err != nil {
				t.Fatalf("%s on %s: %v", prog, name, err)
			}
			memo := NewLowerMemo()
			want, err := NewWithCaches(tbl, m, DefaultOptions(), Caches{Lower: memo}).Program(p)
			if err != nil {
				t.Fatalf("%s on %s: %v", prog, name, err)
			}
			if got.Cost.String() != want.Cost.String() {
				t.Errorf("%s on %s: memo-less pricing %s, through a memo %s", prog, name, got.Cost, want.Cost)
			}
			if _, misses := memo.Stats(); bare.passes != misses {
				t.Errorf("%s on %s: %d translator passes for %d distinct lowerings", prog, name, bare.passes, misses)
			}
			passes += bare.passes
		}
	}
	t.Logf("%d translator passes checked", passes)
}
