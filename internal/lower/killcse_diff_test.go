package lower_test

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"perfpredict/internal/kernels"
	"perfpredict/internal/lower"
	"perfpredict/internal/machine"
	"perfpredict/internal/progen"
	"perfpredict/internal/sem"
	"perfpredict/internal/source"
	"perfpredict/internal/xform"
)

// segments calls visit on every maximal straight-line run of the
// program with its enclosing loop variables — the units aggregation
// lowers.
func segments(list []source.Stmt, vars []string, visit func([]source.Stmt, []string)) {
	var run []source.Stmt
	flush := func() {
		if len(run) > 0 {
			visit(run, vars)
			run = nil
		}
	}
	for _, s := range list {
		switch x := s.(type) {
		case *source.DoLoop:
			flush()
			segments(x.Body, append(slices.Clip(vars), x.Var), visit)
		case *source.IfStmt:
			flush()
			segments(x.Then, vars, visit)
			segments(x.Else, vars, visit)
		case *source.ReturnStmt:
			flush()
		default:
			run = append(run, s)
		}
	}
	flush()
}

func renderLowered(lw *lower.Lowered, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var sb strings.Builder
	for _, b := range []*struct {
		name string
		blk  fmt.Stringer
	}{{"body", lw.Body}, {"pre", lw.Pre}, {"entry", lw.PerEntry}, {"post", lw.Post}} {
		fmt.Fprintf(&sb, "%s:\n%s", b.name, b.blk)
	}
	fmt.Fprintf(&sb, "promoted %+v refs %d\n", lw.Promoted, len(lw.Refs))
	return sb.String()
}

// unrolledKernels returns every embedded kernel with each innermost
// loop unrolled by factor, one variant per loop.
func unrolledKernels(t *testing.T, factor int) map[string]*source.Program {
	out := map[string]*source.Program{}
	for _, k := range kernels.All() {
		p, _, err := k.Parse()
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		for _, site := range xform.FindLoops(p) {
			if !site.Innermost {
				continue
			}
			v, err := xform.Unroll(p, site.Path, factor)
			if err != nil {
				continue
			}
			out[fmt.Sprintf("%s/unroll%d@%v", k.Name, factor, site.Path)] = v
		}
	}
	return out
}

// TestKillCSEMatchesScan: lowering with the indexed CSE invalidation
// produces exactly the IR of the linear scan it replaced, for every
// segment of the corpus, of generated programs, and of 4×- and
// 16×-unrolled kernels, under the default and the no-scalar-replace
// lowering options on machines with and without FMA.
func TestKillCSEMatchesScan(t *testing.T) {
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
	// Indirect subscripts put loads inside load keys
	// ("ld[b(ld[idx(i)])]"): a store to idx(i) must invalidate them.
	gather, err := source.Parse(`
program gather
  integer i, k, n, idx(100)
  real a(100), b(100), c(100), s
  do i = 1, n
    a(idx(i)) = b(idx(i)) + c(i)
    idx(i) = idx(i) + 1
    b(idx(i)) = a(idx(i)) * 2.0 + b(idx(i))
    k = idx(i)
    c(k) = a(idx(i)) + b(k) + c(idx(k))
    idx(k) = k
    s = s + c(idx(k)) * a(idx(i))
    a(idx(idx(i))) = s
    s = s + a(idx(idx(i))) + b(idx(idx(i)))
  end do
end
`)
	if err != nil {
		t.Fatal(err)
	}
	progs["gather"] = gather
	for seed := int64(1); seed <= 60; seed++ {
		src := progen.GenProgram(progen.NewRand(seed), progen.ProgramConfig{})
		p, err := source.Parse(src)
		if err != nil {
			t.Fatalf("progen seed %d: %v", seed, err)
		}
		progs[fmt.Sprintf("progen%d", seed)] = p
	}
	for _, factor := range []int{4, 16} {
		for name, p := range unrolledKernels(t, factor) {
			progs[name] = p
		}
	}

	noPromote := lower.DefaultOptions()
	noPromote.ScalarReplace = false
	compared, stores := 0, 0
	for name, p := range progs {
		tbl, err := sem.Analyze(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, m := range []*machine.Machine{machine.NewPOWER1(), machine.NewSuperScalar2()} {
			for _, opt := range []lower.Options{lower.DefaultOptions(), noPromote} {
				indexed := lower.New(tbl, m, opt)
				scan := lower.New(tbl, m, opt)
				lower.UseScanKillCSE(scan)
				segments(p.Body, nil, func(run []source.Stmt, vars []string) {
					got := renderLowered(indexed.Body(run, vars))
					want := renderLowered(scan.Body(run, vars))
					if got != want {
						t.Fatalf("%s on %s: indexed CSE invalidation diverges from the scan\nindexed:\n%s\nscan:\n%s", name, m.Name, got, want)
					}
					compared++
					stores += strings.Count(got, "store")
				})
			}
		}
	}
	if compared < 1000 || stores < 1000 {
		t.Fatalf("only %d segments with %d stores compared", compared, stores)
	}
}
