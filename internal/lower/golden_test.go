package lower_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
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
	for i := 0; i < len(list); {
		if j := source.RunEnd(list, i, nil); j > i {
			visit(list[i:j], vars)
			i = j
			continue
		}
		switch x := list[i].(type) {
		case *source.DoLoop:
			segments(x.Body, append(slices.Clip(vars), x.Var), visit)
		case *source.IfStmt:
			segments(x.Then, vars, visit)
			segments(x.Else, vars, visit)
		}
		i++
	}
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
	// The promoted locations print as %+v printed them when they held
	// their texts.
	sb.WriteString("promoted [")
	for i, pv := range lw.Promoted {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "{Addr:%s Base:%s InReg:%d OutReg:%d}", lw.Names.Text(pv.Addr), lw.Names.Text(pv.Base), pv.InReg, pv.OutReg)
	}
	fmt.Fprintf(&sb, "] refs %d\n", len(lw.Refs))
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

// goldenPrograms is the lowered-IR golden's program set: the corpus,
// a gather kernel of indirect subscripts, a kernel of value-identity
// cases, generated programs, and every kernel with one innermost loop
// unrolled 4× and 16×.
func goldenPrograms(t *testing.T) map[string]*source.Program {
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
	// Indirect subscripts put loads inside the identity of other loads
	// (b(idx(i))): a store to idx(i) must invalidate them. A store
	// through a non-affine subscript (a(idx(i)) = …) forwards to no
	// later load.
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
	// Value identity: commutative operands, stores that do or do not
	// make a read variant (a(1) after a(i) is stored; b(2) with b only
	// read), affine subscripts through a stored scalar (a(k) does not
	// read k's version), non-affine ones that differ only in operand
	// order, intrinsics, powers, PARAMETER constants and a call.
	values, err := source.Parse(`
program values
  integer i, j, k, m, n, idx(100)
  parameter (n = 100)
  real a(100), b(100), c(100), d(100, 100), s, t, x, y
  do j = 1, n
    do i = 1, n
      s = a(i) * b(i) + c(i)
      t = b(i) * a(i) + c(i)
      x = y + s * t + (t * s + y)
      c(i) = a(1) + b(2) + x
      a(i) = c(i) - a(1) - b(2)
      k = k + 1
      t = a(k) + a(k + 1) + a((k + 1) - 1)
      s = b(k * m) + b(m * k) + d(i, idx(i)) + d(i, idx(i))
      y = sqrt(x) + sqrt(x) + min(x, y) + max(y, x) + abs(s - t)
      x = y ** 2 + y ** 3 + real(i * 2 + n) + real(2 * i + n)
      d(i, j) = d(j, i) * s + d(j, i)
      call f(x)
      t = a(1) + b(2) + s * t
    end do
  end do
end
`)
	if err != nil {
		t.Fatal(err)
	}
	progs["values"] = values
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
	return progs
}

const loweredGolden = "testdata/lowered_golden.json"

// TestKillCSEMatchesScan: the lowered IR of every segment of the golden
// program set, under the default and the no-scalar-replace options on
// machines with and without FMA, hashes to the SHA-256 recorded in
// testdata/lowered_golden.json, one per program × machine × options.
// The table was recorded from the lowering that kept its CSE table
// with string keys and was itself checked equal to the linear-scan
// invalidation for this same set, so the value-numbered lowering still
// produces exactly the IR of that scan. On a mismatch the test prints
// the full replacement table.
func TestKillCSEMatchesScan(t *testing.T) {
	noPromote := lower.DefaultOptions()
	noPromote.ScalarReplace = false
	options := []struct {
		name string
		opt  lower.Options
	}{{"default", lower.DefaultOptions()}, {"no-scalar-replace", noPromote}}
	got := map[string]string{}
	compared, stores := 0, 0
	for name, p := range goldenPrograms(t) {
		tbl, err := sem.Analyze(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, m := range []*machine.Machine{machine.NewPOWER1(), machine.NewSuperScalar2()} {
			for _, o := range options {
				tr := lower.New(tbl, m, o.opt)
				h := sha256.New()
				segments(p.Body, nil, func(run []source.Stmt, vars []string) {
					text := renderLowered(tr.Body(run, vars))
					h.Write([]byte(text))
					compared++
					stores += strings.Count(text, "store")
				})
				got[name+"|"+m.Name+"|"+o.name] = hex.EncodeToString(h.Sum(nil))
			}
		}
	}
	if compared < 1000 || stores < 1000 {
		t.Fatalf("only %d segments with %d stores compared", compared, stores)
	}
	raw, err := os.ReadFile(loweredGolden)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", loweredGolden, err)
	}
	diffs := 0
	for k, w := range want {
		if got[k] != w {
			diffs++
			t.Errorf("%s: lowered IR hashes to %.12s, golden %.12s", k, got[k], w)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			diffs++
			t.Errorf("%s: missing from %s", k, loweredGolden)
		}
	}
	if diffs > 0 {
		table, _ := json.MarshalIndent(got, "", "  ")
		t.Logf("replacement %s:\n%s", loweredGolden, table)
	}
}
