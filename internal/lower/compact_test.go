package lower_test

import (
	"os"
	"slices"
	"testing"

	"perfpredict/internal/interp"
	"perfpredict/internal/ir"
	"perfpredict/internal/kernels"
	"perfpredict/internal/lower"
	"perfpredict/internal/machine"
	"perfpredict/internal/sem"
	"perfpredict/internal/source"
	"perfpredict/internal/tetris"
)

// Every lowering of a program goes through one translator, as an
// estimator's does, so all its blocks share one address table: two
// memory instructions share an Addr Sym exactly when their addresses
// render alike. Checked over the golden program set and every kernel.
func TestAddrSymsMatchText(t *testing.T) {
	progs := goldenPrograms(t)
	for _, k := range kernels.All() {
		p, _, err := k.Parse()
		if err != nil {
			t.Fatal(err)
		}
		progs["kernel/"+k.Name] = p
	}
	mems := 0
	for name, p := range progs {
		tbl, err := sem.Analyze(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tr := lower.New(tbl, machine.NewPOWER1(), lower.DefaultOptions())
		textOf := map[ir.Sym]string{}
		symOf := map[string]ir.Sym{}
		segments(p.Body, nil, func(run []source.Stmt, vars []string) {
			lw, err := tr.Body(run, vars)
			if err != nil {
				return
			}
			for _, b := range []*ir.Block{lw.Body, lw.Pre, lw.PerEntry, lw.Post} {
				if b.Names != lw.Names {
					t.Fatalf("%s: a block renders through another table", name)
				}
				for i := range b.Instrs {
					in := &b.Instrs[i]
					if !in.Op.IsMem() {
						continue
					}
					mems++
					text := b.Names.Text(in.Addr)
					if prev, ok := textOf[in.Addr]; ok && prev != text {
						t.Errorf("%s: Sym %d renders as %q and %q", name, in.Addr, prev, text)
					}
					if prev, ok := symOf[text]; ok && prev != in.Addr {
						t.Errorf("%s: %q has Syms %d and %d", name, text, prev, in.Addr)
					}
					textOf[in.Addr], symOf[text] = text, in.Addr
				}
			}
		})
	}
	if mems < 1000 {
		t.Fatalf("only %d memory instructions checked", mems)
	}
}

// A rank-3 store with three non-affine subscripts has four sources, one
// more than an instruction holds inline: they go to the block's
// overflow array and render as the per-instruction slice rendered them
// (the expected text was recorded from that representation).
func TestOverflowStoreRenders(t *testing.T) {
	p, tbl := analyzed(t, `
program ovf
  integer i, n, idx(10)
  real a(10,10,10), s, x
  do i = 1, n
    a(idx(i), 2*i, i*i) = s
    s = exp(x)
  end do
end
`)
	body := p.Body[0].(*source.DoLoop).Body
	lw, err := lower.New(tbl, machine.NewPOWER1(), lower.DefaultOptions()).Body(body, []string{"i"})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		b    *ir.Block
		want string
	}{
		{"body", lw.Body, "  0  iload r1, [idx(i)]\n  1  addr r2, r1\n  2  imuls r5, r3, r4\n  3  addr r6, r5\n" +
			"  4  imul r7, r4, r4\n  5  addr r8, r7\n  6  fstore, r0, r2, r6, r8, [a(idx(i),2*i,(i*i))]\n"},
		{"pre", lw.Pre, "  0  li r3, #2\n  1  fload r9, [x]\n  2  call r10, r9, @exp\n"},
		{"entry", lw.PerEntry, "  0  fload r0, [s]\n"},
		{"post", lw.Post, "  0  fstore, r10, [s]\n"},
	} {
		if got := c.b.String(); got != c.want {
			t.Errorf("%s:\n%s\nwant:\n%s", c.name, got, c.want)
		}
	}
	if len(lw.Body.Extra) != 4 {
		t.Errorf("overflow array holds %d sources, want the store's 4", len(lw.Body.Extra))
	}
}

// A warm translator lowers a segment without allocating: the Lowered,
// its blocks, references and promotion list are the translator's
// scratch, and its maps and tables are reused, not reallocated.
func TestBodyAllocs(t *testing.T) {
	src, err := os.ReadFile("../../testdata/corpus/programs/prog001.f")
	if err != nil {
		t.Fatal(err)
	}
	p, tbl := analyzed(t, string(src))
	// The first run of the innermost loop: alpha = alpha + u(…) * v(…).
	stmts, vars := p.Body, []string(nil)
	for i := 0; i < len(stmts); i++ {
		if l, ok := stmts[i].(*source.DoLoop); ok {
			stmts, vars, i = l.Body, append(vars, l.Var), -1
		}
	}
	run := stmts[:source.RunEnd(stmts, 0, nil)]
	tr := lower.New(tbl, machine.NewPOWER1(), lower.DefaultOptions())
	if _, err := tr.Body(run, vars); err != nil {
		t.Fatal(err)
	}
	if len(run) != 1 || len(vars) != 3 {
		t.Fatalf("segment of %d statements in %d loops", len(run), len(vars))
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = tr.Body(run, vars) }); n > 0 {
		t.Errorf("Body allocates %v times per warm call, want none", n)
	}
}

// A pass's Lowered is a view of the translator's scratch, which the
// next pass overwrites; its Clone is not. Over the golden's programs,
// the first segment's clone, taken before a second pass on the same
// translator, still renders as a fresh translator's lowering of that
// segment, while the view no longer does for some program: a retainer
// that kept the view would be caught.
func TestCloneOutlivesNextPass(t *testing.T) {
	m := machine.NewPOWER1()
	_, other := analyzed(t, daxpyProgram)
	otherRun := other.Program.Body[len(other.Program.Body)-1].(*source.DoLoop)
	overwritten := 0
	for name, p := range goldenPrograms(t) {
		tbl, err := sem.Analyze(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var runs [][]source.Stmt
		var vars [][]string
		segments(p.Body, nil, func(run []source.Stmt, v []string) {
			runs, vars = append(runs, run), append(vars, v)
		})
		if len(runs) < 2 {
			continue
		}
		want := renderLowered(lower.New(tbl, m, lower.DefaultOptions()).Body(runs[0], vars[0]))
		tr := lower.New(tbl, m, lower.DefaultOptions())
		view, err := tr.Body(runs[0], vars[0])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		clone := view.Clone()
		if _, err := tr.Body(runs[len(runs)-1], vars[len(runs)-1]); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := renderLowered(clone, nil); got != want {
			t.Errorf("%s: clone after a second pass renders\n%s\nwant\n%s", name, got, want)
		}
		if renderLowered(view, nil) != want {
			overwritten++
		}
		// Rebinding the translator to another program restarts its
		// name table; the clone keeps the one it shares.
		tr.Reset(other, m)
		if _, err := tr.Body(otherRun.Body, []string{otherRun.Var}); err != nil {
			t.Fatalf("%s: daxpy after Reset: %v", name, err)
		}
		if got := renderLowered(clone, nil); got != want {
			t.Errorf("%s: clone after a Reset renders\n%s\nwant\n%s", name, got, want)
		}
	}
	if overwritten == 0 {
		t.Error("no second pass overwrote the first pass's view")
	}
	t.Logf("%d views overwritten by a second pass", overwritten)
}

// daxpyProgram is a one-loop program to rebind translators to.
const daxpyProgram = `
program daxpy
  integer i, n
  real x(1000), y(1000), a
  do i = 1, n
    y(i) = y(i) + a * x(i)
  end do
end
`

// LoopOverhead is one shared block: pricing it and simulating loops
// leave it as built.
func TestLoopOverheadShared(t *testing.T) {
	ctl := lower.LoopOverhead()
	want, text := slices.Clone(ctl.Instrs), ctl.String()
	m := machine.NewPOWER1()
	var sc tetris.Scratch
	for range 2 {
		if _, err := sc.EstimateCost(m, ctl, tetris.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	k := kernels.All()[0]
	p, tbl, err := k.Parse()
	if err != nil {
		t.Fatal(err)
	}
	r := interp.New(p, tbl, interp.Options{Machine: m})
	for name, v := range k.Args {
		r.SetScalar(name, v)
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if r.Cycles() <= 0 {
		t.Fatalf("%s simulated no cycles", k.Name)
	}
	if lower.LoopOverhead() != ctl || !slices.Equal(ctl.Instrs, want) || ctl.String() != text {
		t.Errorf("loop overhead changed:\n%s\nwant:\n%s", ctl, text)
	}
}

// analyzed parses and analyzes src.
func analyzed(t *testing.T, src string) (*source.Program, *sem.Table) {
	t.Helper()
	p, err := source.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := sem.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	return p, tbl
}
