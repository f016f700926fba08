package explore

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"slices"
	"testing"

	"perfpredict/internal/machine"
)

// lattice8 and lattice24 range the same POWER1 dimensions over 8 and
// 24 cells; every cell keeps POWER1's FMA, so lowerings are shareable
// across the whole lattice.
func lattice8() *machine.SpecTemplate {
	return &machine.SpecTemplate{
		BaseMachine: "POWER1",
		Dispatch:    &machine.IntRange{Min: 4, Max: 5},
		Pipes:       map[string]machine.IntRange{"FPU": {Min: 1, Max: 2}, "FXU": {Min: 1, Max: 2}},
	}
}

func lattice24() *machine.SpecTemplate {
	return &machine.SpecTemplate{
		BaseMachine: "POWER1",
		Dispatch:    &machine.IntRange{Min: 2, Max: 5},
		Pipes:       map[string]machine.IntRange{"FPU": {Min: 1, Max: 3}, "FXU": {Min: 1, Max: 2}},
	}
}

func corpusKernels(t *testing.T, names ...string) []Kernel {
	t.Helper()
	var ks []Kernel
	for _, n := range names {
		src, err := os.ReadFile("../../testdata/corpus/programs/" + n)
		if err != nil {
			t.Fatal(err)
		}
		ks = append(ks, Kernel{Name: n, Source: string(src)})
	}
	return ks
}

// TestLoweringsPerSweepIndependentOfCells: parse, analysis and
// lowering are machine-independent, so a sweep lowers each kernel's
// segments, conditions and bounds once however many cells it prices.
// An 8-cell and a 24-cell lattice over the same kernels must perform
// the same number of lowerings; only the memo hits grow with the
// lattice.
func TestLoweringsPerSweepIndependentOfCells(t *testing.T) {
	kernels := corpusKernels(t, "prog001.f", "prog007.f", "prog023.f")
	sweep := func(tpl *machine.SpecTemplate) (hits, misses int) {
		prepared := prepare(kernels)
		if _, err := run(context.Background(), tpl, prepared, Options{Workers: 1}); err != nil {
			t.Fatal(err)
		}
		for _, k := range prepared {
			h, m := k.lower.Stats()
			hits += h
			misses += m
		}
		return hits, misses
	}
	hits8, misses8 := sweep(lattice8())
	hits24, misses24 := sweep(lattice24())
	if misses8 == 0 {
		t.Fatal("the sweep lowered nothing through the shared memo")
	}
	if misses8 != misses24 {
		t.Errorf("lowerings: %d on 8 cells, %d on 24 cells; want equal", misses8, misses24)
	}
	if hits24 <= hits8 {
		t.Errorf("memo hits: %d on 8 cells, %d on 24 cells; want more on the larger lattice", hits8, hits24)
	}
}

// implicitKernel references undeclared scalars (s, w, q, t real; m
// integer by the i–n rule). sem.Table.TypeOf inserts a symbol for a
// name it has not seen, so a shared table stays read-only only if
// analysis already resolved every name the pricing layers look up.
const implicitKernel = `program imp
  integer i, n
  real a(100)
  do i = 1, n
    s = s + a(i) * w
    a(i) = s - q
    if (s .gt. t) then
      m = m + 1
    end if
  end do
end
`

// TestSharedKernelsStayReadOnly sweeps kernels with implicitly typed
// scalars on 4 workers: every cell prices the same parsed program and
// symbol table. Under -race this fails on any write to them; the
// symbol list must also be unchanged afterwards, and the sweep must
// equal a serial one.
func TestSharedKernelsStayReadOnly(t *testing.T) {
	kernels := append(corpusKernels(t, "prog001.f"), Kernel{Name: "implicit", Source: implicitKernel})
	prepared := prepare(kernels)
	var before [][]string
	for _, k := range prepared {
		if k.err != nil {
			t.Fatal(k.err)
		}
		before = append(before, symbolNames(k))
	}
	res, err := run(context.Background(), lattice24(), prepared, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range prepared {
		if after := symbolNames(k); !slices.Equal(after, before[i]) {
			t.Errorf("kernel %s: symbol table changed during the sweep:\n%v\n%v", k.name, before[i], after)
		}
	}
	serial, err := Run(context.Background(), lattice24(), kernels, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(res)
	want, _ := json.Marshal(serial)
	if !bytes.Equal(got, want) {
		t.Errorf("4-worker sweep over shared kernels differs from a serial sweep:\n%s\n%s", got, want)
	}
}

func symbolNames(k preparedKernel) []string {
	var out []string
	for _, s := range k.tbl.Symbols() {
		out = append(out, s.Name)
	}
	return out
}
