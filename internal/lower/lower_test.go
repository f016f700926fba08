package lower

import (
	"strings"
	"testing"

	"perfpredict/internal/ir"
	"perfpredict/internal/kernels"
	"perfpredict/internal/machine"
	"perfpredict/internal/sem"
	"perfpredict/internal/source"
)

// prep parses and analyzes a program, returning the table and the body.
func prep(t *testing.T, src string) (*sem.Table, []source.Stmt) {
	t.Helper()
	p, err := source.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	tbl, err := sem.Analyze(p)
	if err != nil {
		t.Fatalf("sem: %v", err)
	}
	return tbl, p.Body
}

// innermost returns the innermost loop body and the loop variables
// enclosing it.
func innermost(stmts []source.Stmt) ([]source.Stmt, []string) {
	var vars []string
	for {
		if len(stmts) == 1 {
			if loop, ok := stmts[0].(*source.DoLoop); ok {
				vars = append(vars, loop.Var)
				stmts = loop.Body
				continue
			}
		}
		return stmts, vars
	}
}

func lowerBody(t *testing.T, src string, opt Options) *Lowered {
	t.Helper()
	tbl, body := prep(t, src)
	stmts, vars := innermost(body)
	tr := New(tbl, machine.NewPOWER1(), opt)
	lw, err := tr.Body(stmts, vars)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return lw
}

func countOps(b *ir.Block) map[ir.Op]int { return b.Counts() }

const daxpySrc = `
subroutine daxpy(n, a)
  integer n, i
  real a, x(1000), y(1000)
  do i = 1, n
    y(i) = y(i) + a * x(i)
  end do
end
`

func TestDaxpyLowering(t *testing.T) {
	lw := lowerBody(t, daxpySrc, DefaultOptions())
	// Invariant scalar a hoisted to the preheader.
	preOps := countOps(lw.Pre)
	if preOps[ir.OpFLoad] != 1 {
		t.Errorf("pre: %v (want 1 hoisted load)", lw.Pre)
	}
	bodyOps := countOps(lw.Body)
	if bodyOps[ir.OpFLoad] != 2 || bodyOps[ir.OpFMA] != 1 || bodyOps[ir.OpFStore] != 1 {
		t.Errorf("body ops: %v\n%s", bodyOps, lw.Body)
	}
	if len(lw.Body.Instrs) != 4 {
		t.Errorf("body length %d, want 4\n%s", len(lw.Body.Instrs), lw.Body)
	}
}

func TestNoFMAKeepsMulAdd(t *testing.T) {
	opt := DefaultOptions()
	opt.FuseFMA = false
	lw := lowerBody(t, daxpySrc, opt)
	ops := countOps(lw.Body)
	if ops[ir.OpFMA] != 0 || ops[ir.OpFMul] != 1 || ops[ir.OpFAdd] != 1 {
		t.Errorf("ops: %v", ops)
	}
}

func TestMachineWithoutFMA(t *testing.T) {
	tbl, body := prep(t, daxpySrc)
	stmts, vars := innermost(body)
	tr := New(tbl, machine.NewScalar1(), DefaultOptions()) // no FMA
	lw, err := tr.Body(stmts, vars)
	if err != nil {
		t.Fatal(err)
	}
	if countOps(lw.Body)[ir.OpFMA] != 0 {
		t.Error("FMA emitted for non-FMA machine")
	}
}

const matmulSrc = `
program matmul
  integer n, i, j, k
  real a(100,100), b(100,100), c(100,100)
  do i = 1, n
    do j = 1, n
      do k = 1, n
        c(i,j) = c(i,j) + a(i,k) * b(k,j)
      end do
    end do
  end do
end
`

func TestMatmulInnerBlock(t *testing.T) {
	lw := lowerBody(t, matmulSrc, DefaultOptions())
	ops := countOps(lw.Body)
	// c(i,j) is promoted to a register over the k loop (sum-reduction
	// recognition): the body keeps only the a/b loads and the FMA.
	if ops[ir.OpFLoad] != 2 || ops[ir.OpFMA] != 1 || ops[ir.OpFStore] != 0 {
		t.Errorf("body ops: %v\n%s", ops, lw.Body)
	}
	if countOps(lw.PerEntry)[ir.OpFLoad] != 1 {
		t.Errorf("per-entry: %s", lw.PerEntry)
	}
	if countOps(lw.Post)[ir.OpFStore] != 1 {
		t.Errorf("post: %s", lw.Post)
	}
	if len(lw.Promoted) != 1 || lw.Names.Text(lw.Promoted[0].Addr) != "c(i,j)" {
		t.Errorf("promoted: %+v", lw.Promoted)
	}
	// With scalar replacement off, the classic 3-load/1-store body.
	opt := DefaultOptions()
	opt.ScalarReplace = false
	lw2 := lowerBody(t, matmulSrc, opt)
	ops2 := countOps(lw2.Body)
	if ops2[ir.OpFLoad] != 3 || ops2[ir.OpFMA] != 1 || ops2[ir.OpFStore] != 1 {
		t.Errorf("no-promo ops: %v\n%s", ops2, lw2.Body)
	}
}

func TestReductionDSE(t *testing.T) {
	src := `
program red
  integer i, n
  real s, a(100), b(100)
  do i = 1, n
    s = s + a(i)
    s = s + b(i)
  end do
end
`
	lw := lowerBody(t, src, DefaultOptions())
	ops := countOps(lw.Body)
	// Full reduction recognition: s lives in a register; the body has
	// only the element loads and adds, with one per-entry load and one
	// post store.
	if ops[ir.OpFStore] != 0 || ops[ir.OpFLoad] != 2 {
		t.Errorf("body ops: %v\n%s", ops, lw.Body)
	}
	if countOps(lw.PerEntry)[ir.OpFLoad] != 1 || countOps(lw.Post)[ir.OpFStore] != 1 {
		t.Errorf("promotion blocks:\n%s\n%s", lw.PerEntry, lw.Post)
	}
	// Without promotion, DSE still removes the intermediate store.
	opt := DefaultOptions()
	opt.ScalarReplace = false
	lw1 := lowerBody(t, src, opt)
	ops1 := countOps(lw1.Body)
	if ops1[ir.OpFStore] != 1 || ops1[ir.OpFLoad] != 3 {
		t.Errorf("DSE-only ops: %v\n%s", ops1, lw1.Body)
	}
}

func TestCSEDedupesLoads(t *testing.T) {
	src := `
program p
  integer i, n
  real a(100), b(100), c(100)
  do i = 1, n
    b(i) = a(i) * a(i) + a(i)
  end do
end
`
	lw := lowerBody(t, src, DefaultOptions())
	if n := countOps(lw.Body)[ir.OpFLoad]; n != 1 {
		t.Errorf("loads = %d, want 1 (CSE)\n%s", n, lw.Body)
	}
	opt := DefaultOptions()
	opt.CSE = false
	lw2 := lowerBody(t, src, opt)
	if n := countOps(lw2.Body)[ir.OpFLoad]; n != 3 {
		t.Errorf("CSE off: loads = %d, want 3", n)
	}
}

func TestStoreKillsCSE(t *testing.T) {
	src := `
program p
  integer i, n
  real a(100), b(100)
  do i = 1, n
    b(i) = a(i)
    a(i) = 2.0
    b(i) = a(i)
  end do
end
`
	lw := lowerBody(t, src, DefaultOptions())
	// After the store to a(i), its value is forwarded from the stored
	// register, so no reload — but the final b(i) value must be 2.0's
	// register, which DSE+forwarding handles; the first b(i) store is
	// dead.
	ops := countOps(lw.Body)
	if ops[ir.OpFStore] != 2 { // a(i) and final b(i)
		t.Errorf("stores = %d\n%s", ops[ir.OpFStore], lw.Body)
	}
}

func TestSmallMultiplierSpecialization(t *testing.T) {
	src := `
program p
  integer i, j, n
  integer a(100)
  do i = 1, n
    j = i * 3
    a(j) = j * 1000
  end do
end
`
	lw := lowerBody(t, src, DefaultOptions())
	ops := countOps(lw.Body)
	if ops[ir.OpIMulSmall] != 1 {
		t.Errorf("imuls = %d, want 1\n%s", ops[ir.OpIMulSmall], lw.Body)
	}
	if ops[ir.OpIMul] != 1 {
		t.Errorf("imul = %d, want 1\n%s", ops[ir.OpIMul], lw.Body)
	}
}

func TestPowerLowering(t *testing.T) {
	src := `
program p
  integer i, n
  real x, y, a(10)
  do i = 1, n
    x = y**2 + y**3
  end do
end
`
	lw := lowerBody(t, src, DefaultOptions())
	// y**2 = 1 mul; y**3 = 2 muls, but CSE shares y and y*y: y2 = y*y
	// (1 mul), y3 = y2*y (1 mul). Total 2 muls. All invariant → in pre.
	pre := countOps(lw.Pre)
	if pre[ir.OpFMul] != 2 {
		t.Errorf("pre muls = %d\npre:\n%s", pre[ir.OpFMul], lw.Pre)
	}
	if pre[ir.OpCall] != 0 {
		t.Error("small powers should not call pow")
	}
}

func TestGeneralPowerCallsLibrary(t *testing.T) {
	src := `
program p
  integer i, n
  real x, y
  do i = 1, n
    x = y**i
  end do
end
`
	lw := lowerBody(t, src, DefaultOptions())
	if countOps(lw.Body)[ir.OpCall] != 1 {
		t.Errorf("want pow call\n%s", lw.Body)
	}
}

func TestRegisterPressureSpills(t *testing.T) {
	src := `
program p
  integer i, n
  real a(100), b(100), c(100), d(100), e(100), f(100)
  do i = 1, n
    f(i) = a(i) + b(i) + c(i) + d(i) + e(i)
  end do
end
`
	opt := DefaultOptions()
	opt.RegisterPressure = 2
	lw := lowerBody(t, src, opt)
	ops := countOps(lw.Body)
	// 5 loads → 2 spill stores forced, plus the real store.
	if ops[ir.OpFStore] != 3 {
		t.Errorf("stores = %d, want 3 (2 spills)\n%s", ops[ir.OpFStore], lw.Body)
	}
}

func TestConditionLowering(t *testing.T) {
	src := `
program p
  integer i, k, n
  real x
  do i = 1, n
    x = 1.0
  end do
end
`
	tbl, _ := prep(t, src)
	tr := New(tbl, machine.NewPOWER1(), DefaultOptions())
	cond := &source.BinExpr{
		Kind: source.BinLE,
		L:    &source.VarRef{Name: "i"},
		R:    &source.VarRef{Name: "k"},
	}
	lw, err := tr.Condition(cond, []string{"i"})
	if err != nil {
		t.Fatal(err)
	}
	ops := countOps(lw.Body)
	if ops[ir.OpICmp] != 1 || ops[ir.OpBranch] != 1 {
		t.Errorf("cond ops: %v\n%s", ops, lw.Body)
	}
	// k is loop-invariant: its load is hoisted into the one-time bin.
	if countOps(lw.Pre)[ir.OpILoad] != 1 {
		t.Errorf("pre ops: %v\n%s", countOps(lw.Pre), lw.Pre)
	}
}

func TestCompoundConditionLowering(t *testing.T) {
	tbl, _ := prep(t, "program p\n integer i, k, n\n real x\n x = 1.0\nend\n")
	tr := New(tbl, machine.NewPOWER1(), DefaultOptions())
	cond := &source.BinExpr{
		Kind: source.BinAnd,
		L: &source.BinExpr{Kind: source.BinGT,
			L: &source.VarRef{Name: "i"}, R: &source.NumLit{Value: 0}},
		R: &source.BinExpr{Kind: source.BinLT,
			L: &source.VarRef{Name: "i"}, R: &source.VarRef{Name: "n"}},
	}
	lw, err := tr.Condition(cond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if countOps(lw.Body)[ir.OpICmp] != 2 {
		t.Errorf("want 2 compares\n%s", lw.Body)
	}
}

func TestIntrinsicLowering(t *testing.T) {
	src := `
program p
  integer i, n, m
  real x, y, a(100)
  do i = 1, n
    a(i) = sqrt(abs(x)) + max(x, y) + mod(i, 4) + sin(y)
  end do
end
`
	lw := lowerBody(t, src, DefaultOptions())
	all := countOps(lw.Body)
	for op, c := range countOps(lw.Pre) {
		all[op] += c
	}
	if all[ir.OpFSqrt] != 1 || all[ir.OpFAbs] != 1 || all[ir.OpFMax] != 1 {
		t.Errorf("ops: %v", all)
	}
	if all[ir.OpIMod] != 1 {
		t.Errorf("mod: %v", all)
	}
	if all[ir.OpCall] != 1 { // sin
		t.Errorf("call: %v", all)
	}
	if all[ir.OpItoF] != 1 { // mod result converted to real for the add
		t.Errorf("itof: %v", all)
	}
}

func TestSubscriptAddressing(t *testing.T) {
	// Affine subscripts are free; a(i*2) needs explicit arithmetic.
	src := `
program p
  integer i, n
  real a(100), b(100)
  do i = 1, n
    b(i) = a(i*2)
  end do
end
`
	lw := lowerBody(t, src, DefaultOptions())
	ops := countOps(lw.Body)
	if ops[ir.OpAddr] != 1 {
		t.Errorf("addr ops = %d, want 1\n%s", ops[ir.OpAddr], lw.Body)
	}
	if ops[ir.OpIMulSmall]+ops[ir.OpIMul] != 1 {
		t.Errorf("subscript multiply missing: %v", ops)
	}
	// Affine forms are free.
	src2 := `
program p
  integer i, n
  real a(100), b(100)
  do i = 1, n
    b(i) = a(i+1) + a(i-1)
  end do
end
`
	lw2 := lowerBody(t, src2, DefaultOptions())
	if countOps(lw2.Body)[ir.OpAddr] != 0 {
		t.Errorf("affine subscripts should be free\n%s", lw2.Body)
	}
}

func TestAddressStringsCanonical(t *testing.T) {
	lw := lowerBody(t, matmulSrc, DefaultOptions())
	var addrs []string
	for _, b := range []*ir.Block{lw.PerEntry, lw.Body, lw.Post} {
		for _, in := range b.Instrs {
			if in.Op.IsMem() {
				addrs = append(addrs, lw.Names.Text(in.Addr))
			}
		}
	}
	joined := strings.Join(addrs, " ")
	for _, want := range []string{"c(i,j)", "a(i,k)", "b(k,j)"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing %q in %v", want, addrs)
		}
	}
}

func TestCallClobbersCSE(t *testing.T) {
	src := `
program p
  integer i, n
  real a(100), b(100)
  do i = 1, n
    b(i) = a(i)
    call touch(a)
    b(i) = a(i)
  end do
end
`
	lw := lowerBody(t, src, DefaultOptions())
	if n := countOps(lw.Body)[ir.OpFLoad]; n != 2 {
		t.Errorf("loads = %d, want 2 (reload after call)\n%s", n, lw.Body)
	}
}

func TestLoopOverheadBlock(t *testing.T) {
	b := LoopOverhead()
	ops := b.Counts()
	// Branch-on-count: increment for addressing + the counted branch,
	// no compare (§2.2.2 branch optimization).
	if ops[ir.OpIAdd] != 1 || ops[ir.OpBranch] != 1 || ops[ir.OpICmp] != 0 {
		t.Errorf("loop overhead: %v", ops)
	}
}

func TestBodyRejectsCompoundStatements(t *testing.T) {
	tbl, body := prep(t, `
program p
  integer i, n
  real x
  do i = 1, n
    x = 1.0
  end do
end
`)
	tr := New(tbl, machine.NewPOWER1(), DefaultOptions())
	if _, err := tr.Body(body, nil); err == nil {
		t.Error("expected error lowering a loop as straight-line code")
	}
}

func TestParameterConstantsAreImmediates(t *testing.T) {
	src := `
program p
  integer i, n, c
  parameter (c = 5)
  integer a(100)
  do i = 1, n
    a(i) = i * c
  end do
end
`
	lw := lowerBody(t, src, DefaultOptions())
	ops := countOps(lw.Body)
	if ops[ir.OpILoad] != 0 {
		t.Errorf("parameter should not load from memory: %v\n%s", ops, lw.Body)
	}
	if ops[ir.OpIMulSmall] != 1 {
		t.Errorf("c=5 should be a small multiplier: %v", ops)
	}
}

func TestNotHoistedWhenKilled(t *testing.T) {
	src := `
program p
  integer i, n
  real s, a(100)
  do i = 1, n
    a(i) = s
    s = s + 1.0
  end do
end
`
	lw := lowerBody(t, src, DefaultOptions())
	// s is assigned in the body: its load must not be hoisted into the
	// one-time bin (the FP constant 1.0 legitimately is); instead it is
	// register-promoted with a per-entry load.
	for _, in := range lw.Pre.Instrs {
		if lw.Names.Text(in.Addr) == "s" {
			t.Errorf("killed scalar hoisted:\n%s", lw.Pre)
		}
	}
	loads := 0
	for _, in := range lw.PerEntry.Instrs {
		if in.Op.IsLoad() && lw.Names.Text(in.Addr) == "s" {
			loads++
		}
	}
	if loads != 1 {
		t.Errorf("s per-entry loads = %d, want 1\n%s", loads, lw.PerEntry)
	}
	stores := 0
	for _, in := range lw.Post.Instrs {
		if in.Op.IsStore() && lw.Names.Text(in.Addr) == "s" {
			stores++
		}
	}
	if stores != 1 {
		t.Errorf("s post stores = %d, want 1\n%s", stores, lw.Post)
	}
}

// RequiredOps is the retargeting contract: every op the lowering of
// the embedded kernels actually emits must be in the list, and the
// list must contain no duplicates.
func TestRequiredOpsContract(t *testing.T) {
	required := make(map[ir.Op]bool)
	for _, op := range RequiredOps() {
		if required[op] {
			t.Errorf("RequiredOps lists %s twice", op)
		}
		required[op] = true
	}
	checkBlock := func(name string, b *ir.Block) {
		if b == nil {
			return
		}
		for _, inst := range b.Instrs {
			if !required[inst.Op] {
				t.Errorf("%s: lowering emitted %s, absent from RequiredOps", name, inst.Op)
			}
		}
	}
	for _, k := range kernels.All() {
		p, tbl, err := k.Parse()
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		stmts, vars := innermost(p.Body)
		lw, err := New(tbl, machine.NewPOWER1(), DefaultOptions()).Body(stmts, vars)
		if err != nil {
			continue // kernels outside the lowerable subset prove nothing here
		}
		checkBlock(k.Name, lw.Body)
		checkBlock(k.Name, lw.Pre)
	}
}
