package lower_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"perfpredict/internal/lower"
	"perfpredict/internal/machine"
	"perfpredict/internal/sem"
	"perfpredict/internal/source"
)

// goldenTargets returns the eight machines of the corpus goldens: the
// three builtins and the five generated spec files.
func goldenTargets(t *testing.T) []*machine.Machine {
	t.Helper()
	var out []*machine.Machine
	for _, n := range machine.Names() {
		m, err := machine.Lookup(n)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, m)
	}
	specs, err := filepath.Glob("../../testdata/corpus/specs/*.json")
	if err != nil || len(specs) != 5 {
		t.Fatalf("want 5 corpus specs, got %d (%v)", len(specs), err)
	}
	for _, f := range specs {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := machine.ParseSpec(data)
		if err != nil {
			t.Fatal(err)
		}
		m, err := sp.Machine()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, m)
	}
	return out
}

// lowerAll runs, in program order, every translator pass pricing makes
// over list: each straight-line run, IF condition and loop bound. It
// returns the rendering of every pass followed by its raw instructions,
// whose register and Sym numbers the rendering does not all show.
func lowerAll(tr *lower.Translator, list []source.Stmt, vars []string) string {
	var sb strings.Builder
	emit := func(lw *lower.Lowered, err error) {
		sb.WriteString(renderLowered(lw, err))
		if err == nil {
			fmt.Fprintf(&sb, "%v %v %v %v\n", lw.Body.Instrs, lw.Pre.Instrs, lw.PerEntry.Instrs, lw.Post.Instrs)
		}
	}
	var walk func(list []source.Stmt, vars []string)
	walk = func(list []source.Stmt, vars []string) {
		for i := 0; i < len(list); {
			if j := source.RunEnd(list, i, nil); j > i {
				emit(tr.Body(list[i:j], vars))
				i = j
				continue
			}
			switch x := list[i].(type) {
			case *source.DoLoop:
				for _, b := range []source.Expr{x.Lb, x.Ub, x.Step} {
					if b != nil {
						emit(tr.ExprOnly(b, vars))
					}
				}
				walk(x.Body, append(vars[:len(vars):len(vars)], x.Var))
			case *source.IfStmt:
				emit(tr.Condition(x.Cond, vars))
				walk(x.Then, vars)
				walk(x.Else, vars)
			}
			i++
		}
	}
	walk(list, vars)
	return sb.String()
}

// TestResetMatchesNew: one translator, Reset from program to program
// of the golden set in a shuffled order and from golden target to
// golden target, lowers every segment, condition and bound of each
// exactly as a translator New builds for that program and target does.
func TestResetMatchesNew(t *testing.T) {
	progs := goldenPrograms(t)
	names := make([]string, 0, len(progs))
	for n := range progs {
		names = append(names, n)
	}
	sort.Strings(names)
	tbls := make(map[string]*sem.Table, len(progs))
	for _, n := range names {
		tbl, err := sem.Analyze(progs[n])
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		tbls[n] = tbl
	}
	r := rand.New(rand.NewSource(1))
	compared := 0
	var tr *lower.Translator
	for _, m := range goldenTargets(t) {
		r.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
		for _, n := range names {
			if tr == nil {
				tr = lower.New(tbls[n], m, lower.DefaultOptions())
			} else {
				tr.Reset(tbls[n], m)
			}
			got := lowerAll(tr, progs[n].Body, nil)
			want := lowerAll(lower.New(tbls[n], m, lower.DefaultOptions()), progs[n].Body, nil)
			if got != want {
				t.Errorf("%s on %s: a Reset translator lowers\n%s\nwant\n%s", n, m.Name, got, want)
			}
			compared++
		}
	}
	t.Logf("%d programs compared", compared)

	// A large unrolled block grows the translator's tables; the small
	// blocks lowered after it, across Resets back and forth and an
	// Unbind, must not see its stale entries.
	big := unrolledProgram(t, 64)
	bigTbl, err := sem.Analyze(big)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.NewPOWER1()
	tr = lower.New(bigTbl, m, lower.DefaultOptions())
	for round := 0; round < 3; round++ {
		if round == 2 {
			tr.Unbind()
		}
		tr.Reset(bigTbl, m)
		got := lowerAll(tr, big.Body, nil)
		if want := lowerAll(lower.New(bigTbl, m, lower.DefaultOptions()), big.Body, nil); got != want {
			t.Fatalf("round %d: the unrolled block lowers differently after Reset", round)
		}
		for _, n := range names[:10] {
			tr.Reset(tbls[n], m)
			got := lowerAll(tr, progs[n].Body, nil)
			if want := lowerAll(lower.New(tbls[n], m, lower.DefaultOptions()), progs[n].Body, nil); got != want {
				t.Errorf("round %d, %s after the unrolled block: a Reset translator lowers\n%s\nwant\n%s", round, n, got, want)
			}
		}
	}
}

// unrolledProgram returns a loop whose body is a daxpy-like statement
// unrolled copies times, with distinct subscripts and shared operands.
func unrolledProgram(t *testing.T, copies int) *source.Program {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("program unrolled\n  integer i, n\n  real a, x(4096), y(4096), s\n  do i = 1, n, " + fmt.Sprint(copies) + "\n")
	for k := 0; k < copies; k++ {
		fmt.Fprintf(&sb, "    y(i + %d) = y(i + %d) + a * x(i + %d) * x(i + %d)\n", k, k, k, k+1)
		fmt.Fprintf(&sb, "    s = s + y(i + %d) / (a + %d.5)\n", k, k)
	}
	sb.WriteString("  end do\nend\n")
	p, err := source.Parse(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	return p
}
