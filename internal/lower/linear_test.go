package lower_test

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"perfpredict"
	"perfpredict/internal/lower"
	"perfpredict/internal/machine"
	"perfpredict/internal/sem"
	"perfpredict/internal/source"
)

// chainProgram is a one-statement program whose right-hand side is a
// left-deep chain of n terms: a + a + … + a, or with distinct scalars
// x0 + x1 + … stored to y(i) inside a do loop.
func chainProgram(n int, distinct bool) string {
	var sb strings.Builder
	if distinct {
		sb.WriteString("program chain\n  integer i, n\n  real y(100)\n  do i = 1, n\n    y(i) = x0")
		for k := 1; k < n; k++ {
			fmt.Fprintf(&sb, " + x%d", k)
		}
		sb.WriteString("\n  end do\nend\n")
		return sb.String()
	}
	sb.WriteString("program chain\n  real s, a\n  s = a")
	for k := 1; k < n; k++ {
		sb.WriteString(" + a")
	}
	sb.WriteString("\nend\n")
	return sb.String()
}

// subscriptProgram is `s = s + y(i + 1 + 1 + …)` with n terms in the
// subscript, inside a do loop.
func subscriptProgram(n int) string {
	var sb strings.Builder
	sb.WriteString("program chain\n  integer i, n\n  real s, y(100)\n  do i = 1, n\n    s = s + y(i")
	for k := 1; k < n; k++ {
		sb.WriteString(" + 1")
	}
	sb.WriteString(")\n  end do\nend\n")
	return sb.String()
}

// lowerAllocs lowers every segment of src on POWER1 and returns the
// bytes allocated and the time taken by the lowering alone.
func lowerAllocs(t *testing.T, src string) (uint64, time.Duration) {
	t.Helper()
	p, err := source.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := sem.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	return allocs(func() {
		tr := lower.New(tbl, machine.NewPOWER1(), lower.DefaultOptions())
		segments(p.Body, nil, func(run []source.Stmt, vars []string) {
			if _, err := tr.Body(run, vars); err != nil {
				t.Fatal(err)
			}
		})
	})
}

// allocs runs f once and returns the bytes it allocated and the time
// it took. It first empties the sync.Pools (two collections: the first
// moves pooled items to the victim cache, the second drops them), so
// every call grows its pricing scratch from empty and the two sizes of
// a ratio measure the same work.
func allocs(f func()) (uint64, time.Duration) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	f()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, elapsed
}

// TestLoweringLinear: lowering a long expression costs memory linear
// in its length, and an 8k-term statement lowers well within a second.
// A lowering that renders or re-walks the subtree at every node is
// quadratic: its 8k/2k allocation ratio is about 16, a linear one 4.
// A walk that re-folds constants at every level of a subscript
// allocates nothing for it, so that shape also bounds the 8k/2k time
// ratio, taken as the best of three runs at each size.
func TestLoweringLinear(t *testing.T) {
	for _, shape := range []struct {
		name  string
		src   func(n int) string
		timed bool
	}{
		{"a+a+…", func(n int) string { return chainProgram(n, false) }, false},
		{"y(i)=x0+x1+…", func(n int) string { return chainProgram(n, true) }, false},
		{"s=s+y(i+1+1+…)", subscriptProgram, true},
	} {
		small, smallTook := lowerAllocs(t, shape.src(2000))
		large, took := lowerAllocs(t, shape.src(8000))
		ratio := float64(large) / float64(small)
		t.Logf("%s: %d B at 2k terms, %d B at 8k (ratio %.1f); 8k in %v", shape.name, small, large, ratio, took)
		if ratio > 5 {
			t.Errorf("%s: 8k/2k allocation ratio %.1f, want ≤ 5 (linear)", shape.name, ratio)
		}
		if took > time.Second {
			t.Errorf("%s: 8k-term lowering took %v, want < 1s", shape.name, took)
		}
		if !shape.timed {
			continue
		}
		for range 2 {
			_, d := lowerAllocs(t, shape.src(2000))
			smallTook = min(smallTook, d)
			_, d = lowerAllocs(t, shape.src(8000))
			took = min(took, d)
		}
		if tr := float64(took) / float64(smallTook); tr > 12 {
			t.Errorf("%s: 8k/2k time ratio %.1f (%v / %v), want ≤ 12 (linear reads 4–7 with stack growth, quadratic 16 or more)", shape.name, tr, took, smallTook)
		}
	}
}

// TestPipelineLinear: the subscript chain of subscriptProgram costs
// memory linear in its length through the whole pipeline, not only in
// lowering. Three stages run it: Predict on power1mem.json, whose
// memory hierarchy runs cachemodel's walk of every subscript;
// ExprString of the chain; and a one-level optimize search, which
// renders and re-analyzes it. A stage that folds constants or renders
// text afresh at every level of the chain reads an 8k/2k allocation
// ratio of about 15, a linear one about 4. The 8k run's time is bounded
// only without -race, which slows the search several-fold.
func TestPipelineLinear(t *testing.T) {
	mem, err := perfpredict.LoadTarget("../../examples/custom-machine/power1mem.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, stage := range []struct {
		name string
		// prep does the work the stage does not measure and returns
		// the run that it does.
		prep func(src string) func()
	}{
		{"Predict on power1mem", func(src string) func() {
			return func() {
				if _, err := perfpredict.Predict(src, mem); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"ExprString", func(src string) func() {
			p, err := source.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			rhs := p.Body[0].(*source.DoLoop).Body[0].(*source.Assign).RHS
			return func() { source.ExprString(rhs) }
		}},
		{"OptimizeCtx", func(src string) func() {
			return func() {
				opt := perfpredict.OptimizeOptions{Workers: 1, MaxNodes: 4, MaxDepth: 1}
				if _, err := perfpredict.OptimizeCtx(context.Background(), src, perfpredict.POWER1(), nil, opt); err != nil {
					t.Fatal(err)
				}
			}
		}},
	} {
		small, _ := allocs(stage.prep(subscriptProgram(2000)))
		large, took := allocs(stage.prep(subscriptProgram(8000)))
		ratio := float64(large) / float64(small)
		t.Logf("%s: %d B at 2k terms, %d B at 8k (ratio %.1f); 8k in %v", stage.name, small, large, ratio, took)
		if ratio > 5 {
			t.Errorf("%s: 8k/2k allocation ratio %.1f, want ≤ 5 (linear)", stage.name, ratio)
		}
		if !raceEnabled && took > time.Second {
			t.Errorf("%s: 8k-term run took %v, want < 1s", stage.name, took)
		}
	}
}

// BenchmarkLowerCorpus lowers every straight-line segment of every
// corpus program on POWER1 with a fresh translator per program: the
// lowering layer's own cost, without parsing, analysis or pricing.
func BenchmarkLowerCorpus(b *testing.B) {
	files, err := filepath.Glob("../../testdata/corpus/programs/*.f")
	if err != nil || len(files) == 0 {
		b.Fatalf("corpus: %v (%d files)", err, len(files))
	}
	type prog struct {
		p   *source.Program
		tbl *sem.Table
	}
	var progs []prog
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			b.Fatal(err)
		}
		p, err := source.Parse(string(src))
		if err != nil {
			b.Fatalf("%s: %v", f, err)
		}
		tbl, err := sem.Analyze(p)
		if err != nil {
			b.Fatalf("%s: %v", f, err)
		}
		progs = append(progs, prog{p, tbl})
	}
	m := machine.NewPOWER1()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pr := range progs {
			tr := lower.New(pr.tbl, m, lower.DefaultOptions())
			segments(pr.p.Body, nil, func(run []source.Stmt, vars []string) {
				if _, err := tr.Body(run, vars); err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}

// divisionProgram is `s = s + y(64 / 1 / … / 1)` with n terms in the
// subscript, inside a do loop.
func divisionProgram(n int) string {
	var sb strings.Builder
	sb.WriteString("program chain\n  integer i, n\n  real s, y(100)\n  do i = 1, n\n    s = s + y(64")
	for k := 1; k < n; k++ {
		sb.WriteString(" / 1")
	}
	sb.WriteString(")\n  end do\nend\n")
	return sb.String()
}

// TestDivisionChainLinear: Predict of a subscript that is a chain of
// integer divisions, and Simulate of it over ten trips, cost memory
// and time linear in its length. Each division folds, or evaluates, by
// its operands' types. Typing both operand subtrees afresh at every
// level allocates nothing but is quadratic in time: Predict took 33 ms
// at 1k terms and 470 ms at 4k, and Simulate 15 ms at 250 terms and
// 248 ms at 1k. So besides the 4k/1k allocation ratio the test bounds
// the 4k/500 time ratio, the best of three runs at each size, which
// reads about 45 when quadratic and 8 to 12 when linear.
func TestDivisionChainLinear(t *testing.T) {
	for _, row := range []struct {
		name string
		run  func(src string) error
	}{
		{"Predict", func(src string) error {
			_, err := perfpredict.Predict(src, perfpredict.POWER1())
			return err
		}},
		{"Simulate", func(src string) error {
			_, err := perfpredict.Simulate(src, perfpredict.POWER1(), map[string]float64{"n": 10})
			return err
		}},
	} {
		run := func(n int) func() {
			src := divisionProgram(n)
			return func() {
				if err := row.run(src); err != nil {
					t.Fatal(err)
				}
			}
		}
		small, _ := allocs(run(1000))
		large, took := allocs(run(4000))
		ratio := float64(large) / float64(small)
		t.Logf("%s: %d B at 1k terms, %d B at 4k (ratio %.1f); 4k in %v", row.name, small, large, ratio, took)
		if ratio > 5 {
			t.Errorf("%s: 4k/1k allocation ratio %.1f, want ≤ 5 (linear)", row.name, ratio)
		}
		if !raceEnabled && took > 100*time.Millisecond {
			t.Errorf("%s: 4k terms took %v, want < 100ms", row.name, took)
		}
		smallTook := time.Duration(math.MaxInt64)
		for range 3 {
			_, d := allocs(run(500))
			smallTook = min(smallTook, d)
			_, d = allocs(run(4000))
			took = min(took, d)
		}
		tr := float64(took) / float64(smallTook)
		t.Logf("%s: 4k/500 time ratio %.1f (%v / %v)", row.name, tr, took, smallTook)
		if tr > 24 {
			t.Errorf("%s: 4k/500 time ratio %.1f (%v / %v), want ≤ 24 (linear)", row.name, tr, took, smallTook)
		}
	}
}
