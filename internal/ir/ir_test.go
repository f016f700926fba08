package ir

import (
	"sort"
	"strings"
	"testing"
	"unsafe"
)

func TestOpMetadata(t *testing.T) {
	if !OpIAdd.Commutative() || OpISub.Commutative() {
		t.Error("commutativity wrong for iadd/isub")
	}
	if OpFMA.NumSrcs() != 3 {
		t.Errorf("fma srcs = %d", OpFMA.NumSrcs())
	}
	if !OpFLoad.IsLoad() || OpFLoad.IsStore() {
		t.Error("fload classification")
	}
	if !OpFStore.IsStore() || !OpFStore.IsMem() {
		t.Error("fstore classification")
	}
	if !OpBranch.IsBranch() || OpFAdd.IsBranch() {
		t.Error("branch classification")
	}
	if OpFAdd.Class() != ClassFloat || OpIAdd.Class() != ClassInt {
		t.Error("class wrong")
	}
	if OpIStore.HasDst() {
		t.Error("istore should not define a register")
	}
}

func TestAllOpsHaveNames(t *testing.T) {
	seen := map[string]Op{}
	for _, op := range AllOps() {
		name := op.String()
		if name == "" || strings.HasPrefix(name, "op(") {
			t.Errorf("op %d has no name", op)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("duplicate mnemonic %q for %v and %v", name, prev, op)
		}
		seen[name] = op
	}
}

func TestInstrString(t *testing.T) {
	b := &Block{}
	b.Append(Instr{Op: OpFLoad, Dst: 3, Addr: b.Intern("a(i,j)"), Base: b.Intern("a")})
	s := b.InstrString(0)
	if !strings.Contains(s, "lfd") && !strings.Contains(s, "fload") {
		t.Errorf("String() = %q", s)
	}
	if !strings.Contains(s, "a(i,j)") {
		t.Errorf("missing addr in %q", s)
	}
}

// buildDaxpyBlock lowers y(i) = y(i) + a*x(i) by hand:
//
//	r0 = fload x(i); r1 = fload y(i); r2 = fload a
//	r3 = fma r0, r2, r1; fstore r3 -> y(i)
func buildDaxpyBlock() *Block {
	b := &Block{}
	b.Append(Instr{Op: OpFLoad, Dst: 0, Addr: b.Intern("x(i)"), Base: b.Intern("x")})
	b.Append(Instr{Op: OpFLoad, Dst: 1, Addr: b.Intern("y(i)"), Base: b.Intern("y")})
	b.Append(Instr{Op: OpFLoad, Dst: 2, Addr: b.Intern("a"), Base: b.Intern("a")})
	b.Append(Instr{Op: OpFMA, Dst: 3}, 0, 2, 1)
	b.Append(Instr{Op: OpFStore, Addr: b.Intern("y(i)"), Base: b.Intern("y")}, 3)
	return b
}

func TestDepsRegisterRAW(t *testing.T) {
	b := buildDaxpyBlock()
	deps := b.Deps(false)
	// FMA (index 3) depends on all three loads.
	if len(deps[3]) != 3 {
		t.Fatalf("fma deps = %v", deps[3])
	}
	// Store depends on FMA (reg) and the load of y(i) (WAR on address).
	got := map[int]bool{}
	for _, d := range deps[4] {
		got[d] = true
	}
	if !got[3] {
		t.Errorf("store missing RAW dep on fma: %v", deps[4])
	}
	if !got[1] {
		t.Errorf("store missing WAR dep on load y(i): %v", deps[4])
	}
}

func TestDepsMemoryRAWSameAddr(t *testing.T) {
	b := &Block{}
	b.Append(Instr{Op: OpFStore, Addr: b.Intern("s"), Base: b.Intern("s")}, 0)
	b.Append(Instr{Op: OpFLoad, Dst: 1, Addr: b.Intern("s"), Base: b.Intern("s")})
	deps := b.Deps(false)
	if len(deps[1]) != 1 || deps[1][0] != 0 {
		t.Errorf("load-after-store deps = %v", deps[1])
	}
}

func TestDepsDistinctSubscriptsIndependent(t *testing.T) {
	b := &Block{}
	b.Append(Instr{Op: OpFStore, Addr: b.Intern("a(i)"), Base: b.Intern("a")}, 0)
	b.Append(Instr{Op: OpFLoad, Dst: 1, Addr: b.Intern("a(i+1)"), Base: b.Intern("a")})
	if deps := b.Deps(false); len(deps[1]) != 0 {
		t.Errorf("distinct subscripts should be independent: %v", deps[1])
	}
	// Conservative mode orders them.
	if deps := b.Deps(true); len(deps[1]) != 1 {
		t.Errorf("mayAlias should order them: %v", deps[1])
	}
}

func TestDepsWAW(t *testing.T) {
	b := &Block{}
	b.Append(Instr{Op: OpFStore, Addr: b.Intern("s"), Base: b.Intern("s")}, 0)
	b.Append(Instr{Op: OpFStore, Addr: b.Intern("s"), Base: b.Intern("s")}, 1)
	deps := b.Deps(false)
	if len(deps[1]) != 1 || deps[1][0] != 0 {
		t.Errorf("WAW deps = %v", deps[1])
	}
}

func TestCriticalPath(t *testing.T) {
	b := buildDaxpyBlock()
	// load -> fma -> store = 3
	if cp := criticalPathLen(b, false); cp != 3 {
		t.Errorf("critical path = %d, want 3", cp)
	}
	// Independent ops: path 1.
	b2 := &Block{}
	for i := 0; i < 5; i++ {
		b2.Append(Instr{Op: OpFAdd, Dst: Reg(2 * i)}, Reg(2*i+100), Reg(2*i+200))
	}
	if cp := criticalPathLen(b2, false); cp != 1 {
		t.Errorf("independent critical path = %d", cp)
	}
}

func TestCloneIsDeep(t *testing.T) {
	b := buildDaxpyBlock()
	c := b.Clone()
	c.Srcs(3)[0] = 99
	c.Instrs[0].Addr = c.Intern("z(i)")
	if b.Srcs(3)[0] == 99 || b.Instrs[0].Addr == c.Instrs[0].Addr {
		t.Error("Clone shares state with original")
	}
}

func TestCountsAndMaxReg(t *testing.T) {
	b := buildDaxpyBlock()
	c := b.Counts()
	if c[OpFLoad] != 3 || c[OpFMA] != 1 || c[OpFStore] != 1 {
		t.Errorf("counts = %v", c)
	}
	if b.MaxReg() != 3 {
		t.Errorf("MaxReg = %d", b.MaxReg())
	}
	if (&Block{}).MaxReg() != NoReg {
		t.Error("empty MaxReg should be NoReg")
	}
}

func TestBlockString(t *testing.T) {
	b := buildDaxpyBlock()
	s := b.String()
	if !strings.Contains(s, "  3  fma r3, r0, r2, r1\n") || !strings.Contains(s, "[y(i)]") {
		t.Errorf("block string: %q", s)
	}
}

func TestParseOp(t *testing.T) {
	for _, op := range AllOps() {
		got, ok := ParseOp(op.String())
		if !ok || got != op {
			t.Errorf("ParseOp(%q) = %v, %v; want %v, true", op.String(), got, ok, op)
		}
	}
	if _, ok := ParseOp("warp"); ok {
		t.Error("ParseOp accepted an unknown mnemonic")
	}
	if _, ok := ParseOp(""); ok {
		t.Error("ParseOp accepted the empty string")
	}
}

// Regression: under conservative aliasing, a load must depend on the
// last write to its *base* even when its exact address also has an
// earlier writer. The old rule took the exact-address RAW dep and
// skipped the base check, so the intervening possibly-aliasing store
// could reorder around the load — which made the dependence relation
// differ between equivalent presentations of the same block (found by
// the oracle's topological-permutation invariant, fuzz seed -50).
func TestDepsMayAliasStoreBetweenWriteAndLoad(t *testing.T) {
	b := &Block{}
	b.Append(Instr{Op: OpFStore, Addr: b.Intern("c(j,i)"), Base: b.Intern("c")}, 0)
	b.Append(Instr{Op: OpIStore, Addr: b.Intern("c(i)"), Base: b.Intern("c")}, 1)
	b.Append(Instr{Op: OpFLoad, Dst: 2, Addr: b.Intern("c(j,i)"), Base: b.Intern("c")})

	// Exact mode: only the same-address RAW dep.
	if deps := b.Deps(false); len(deps[2]) != 1 || deps[2][0] != 0 {
		t.Errorf("exact-mode load deps = %v, want [0]", deps[2])
	}
	// Conservative mode: the store to c(i) may alias c(j,i), so the
	// load depends on both writes.
	deps := b.Deps(true)
	got := append([]int(nil), deps[2]...)
	sort.Ints(got)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("mayAlias load deps = %v, want [0 1]", deps[2])
	}
}

// ParseOp must reject everything that is not a mnemonic exactly as
// Op.String spells it: the mnemonics are machine-description keys, so
// near-misses are description bugs to surface, not input to repair.
func TestParseOpRejectsTable(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"unknown mnemonic", "warp"},
		{"empty string", ""},
		{"the invalid sentinel", "invalid"},
		{"wrong case", "FADD"},
		{"leading space", " fadd"},
		{"trailing space", "fadd "},
		{"prefix of a mnemonic", "fad"},
		{"mnemonic plus suffix", "fadd2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if op, ok := ParseOp(tc.in); ok {
				t.Errorf("ParseOp(%q) = %v, true; want rejection", tc.in, op)
			}
		})
	}
}

// TestInstrSize pins the fixed-size instruction: no slice or string
// field, sources inline, texts as Syms.
func TestInstrSize(t *testing.T) {
	if n := unsafe.Sizeof(Instr{}); n > 48 {
		t.Errorf("unsafe.Sizeof(Instr{}) = %d, want <= 48", n)
	}
}

// A call with five arguments keeps its sources in the block's overflow
// array and renders as it did with a per-instruction slice (recorded
// from that representation).
func TestOverflowSourcesRender(t *testing.T) {
	b := &Block{}
	b.Append(Instr{Op: OpFLoad, Dst: 0, Addr: b.Intern("x"), Base: b.Intern("x")})
	b.Append(Instr{Op: OpCall, Dst: 9, Addr: b.Intern("f")}, 1, 2, 3, 4, 5)
	if got, want := b.InstrString(1), "call r9, r1, r2, r3, r4, r5, @f"; got != want {
		t.Errorf("InstrString = %q, want %q", got, want)
	}
	c := &Block{Names: b.Names}
	c.AppendFrom(b, 1)
	c.Srcs(0)[4] = 7
	if got := b.Srcs(1)[4]; got != 5 {
		t.Errorf("renaming a copy's overflow source changed the original: %d", got)
	}
	if got := c.InstrString(0); got != "call r9, r1, r2, r3, r4, r7, @f" {
		t.Errorf("copy renders %q", got)
	}
	if b.MaxReg() != 9 || len(b.Clone().Srcs(1)) != 5 {
		t.Error("MaxReg or Clone lost overflow sources")
	}
}

// A Sym means nothing in another table: copying an instruction between
// blocks of two tables is a bug AppendFrom reports.
func TestAppendFromChecksTable(t *testing.T) {
	a, b := &Block{}, &Block{}
	a.Append(Instr{Op: OpFLoad, Dst: 0, Addr: a.Intern("x"), Base: a.Intern("x")})
	b.Intern("y")
	defer func() {
		if recover() == nil {
			t.Error("AppendFrom copied across name tables")
		}
	}()
	b.AppendFrom(a, 0)
}

// DepsInto indexes its location tables by Sym and keeps every table in
// the caller's buffer: on a warm buffer it allocates nothing, under
// -race too, since no pool is involved.
func TestDepsIntoWarmAllocs(t *testing.T) {
	b := buildDaxpyBlock()
	var buf DepsBuf
	b.DepsInto(true, &buf)
	if n := testing.AllocsPerRun(100, func() { b.DepsInto(true, &buf) }); n != 0 {
		t.Errorf("DepsInto allocates %v times per warm call", n)
	}
}

// criticalPathLen returns the length (in instructions) of the longest
// dependence chain — a structural lower bound useful in tests.
func criticalPathLen(b *Block, mayAlias bool) int {
	deps := b.Deps(mayAlias)
	depth := make([]int, len(b.Instrs))
	max := 0
	for i := range b.Instrs {
		d := 1
		for _, j := range deps[i] {
			if depth[j]+1 > d {
				d = depth[j] + 1
			}
		}
		depth[i] = d
		if d > max {
			max = d
		}
	}
	return max
}
