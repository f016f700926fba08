package interp

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"perfpredict/internal/machine"
	"perfpredict/internal/sem"
	"perfpredict/internal/source"
)

// callsProgram puts CALLs at every position a run can hold one: first,
// mid-run, last, inside an IF branch and after a nested loop.
const callsProgram = `program calls
  integer i, j, n
  parameter (n = 4)
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
// branches, to the run's length. Statements after a RETURN never run.
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

// TestSegmentationMatchesRunEnd: every straight-line run the timed
// interpreter lowers is one source.RunEnd cuts, by identity of its
// first statement and by length, for every corpus program on every
// golden target and for a program with CALLs placed where a wrong rule
// would split or merge a run. The interpreter lowers only the runs it
// executes, so its segments are a subset of the cut. Loops run 4 times
// (parameter n rewritten, dummy n set) and arrays hold 1.5, so that
// every nest executes quickly and few divisions see a zero; a run that
// fails at run time is not lowered and only drops out of the subset.
func TestSegmentationMatchesRunEnd(t *testing.T) {
	corpus := filepath.Join("..", "..", "testdata", "corpus")
	data, err := os.ReadFile(filepath.Join(corpus, "golden.json"))
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
		src, err := os.ReadFile(filepath.Join(corpus, "programs", prog))
		if err != nil {
			t.Fatal(err)
		}
		srcs[prog] = strings.ReplaceAll(string(src), "parameter (n = 64)", "parameter (n = 4)")
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
	lowered, calls := 0, 0
	for _, name := range names {
		m := goldenTarget(t, corpus, name)
		for prog, src := range srcs {
			p, err := source.Parse(src)
			if err != nil {
				t.Fatalf("%s: %v", prog, err)
			}
			tbl, err := sem.Analyze(p)
			if err != nil {
				t.Fatalf("%s: %v", prog, err)
			}
			r := New(p, tbl, Options{Machine: m})
			r.SetScalar("n", 4)
			for _, sym := range tbl.Symbols() {
				if !sym.IsArray() {
					continue
				}
				size := int64(1)
				for _, d := range sym.Dims {
					size *= d
				}
				ones := make([]float64, size)
				for i := range ones {
					ones[i] = 1.5
				}
				r.SetArray(sym.Name, ones)
			}
			if err := r.Run(); err != nil && prog == "calls" {
				t.Fatalf("%s on %s: %v", prog, name, err)
			}
			want := map[source.Stmt]int{}
			runStarts(p.Body, want)
			if len(r.lowered) == 0 {
				t.Errorf("%s on %s: nothing lowered", prog, name)
			}
			for first, seg := range r.lowered {
				n, ok := want[first]
				switch {
				case !ok:
					t.Errorf("%s on %s: lowered a run starting at %s (%d statements), which starts no run", prog, name, first.StmtPos(), seg.n)
				case n != seg.n:
					t.Errorf("%s on %s: lowered %d statements from %s, the run holds %d", prog, name, seg.n, first.StmtPos(), n)
				}
			}
			lowered += len(r.lowered)
			if prog == "calls" {
				calls += len(r.lowered)
			}
		}
	}
	if calls != 5*len(names) {
		t.Errorf("the CALL program lowered %d runs on %d targets, want all 5 on each", calls, len(names))
	}
	t.Logf("%d lowered runs checked", lowered)
}

// goldenTarget loads a golden-table target: a generated spec file
// when one is named so, else a builtin machine.
func goldenTarget(t *testing.T, corpus, name string) *machine.Machine {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(corpus, "specs", name+".json"))
	if err != nil {
		m, err := machine.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	sp, err := machine.ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sp.Machine()
	if err != nil {
		t.Fatal(err)
	}
	return m
}
