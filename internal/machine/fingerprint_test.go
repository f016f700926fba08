package machine

import (
	"os"
	"path/filepath"
	"testing"

	"perfpredict/internal/ir"
	"perfpredict/internal/source"
)

// TestFingerprintValuesPinned pins the fingerprint of every builtin
// spec, every corpus spec and POWER1 with its memory hierarchy. The
// values are identities outside this process — result-cache
// snapshots and explore output carry them — so a change to the hash
// order or its inputs must show up here, not in a cold cache.
func TestFingerprintValuesPinned(t *testing.T) {
	want := map[string]string{
		"POWER1":       "cc8ba3ddd02b345b28f010e098fb2622",
		"Scalar1":      "8ed89ed7700d8df9e44bc8f35bec947d",
		"SuperScalar2": "96b2557ba45ab1e032ec449f7c429701",
	}
	for _, name := range Names() {
		m, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		w, ok := want[name]
		if !ok {
			t.Errorf("builtin %s has no pinned fingerprint", name)
			continue
		}
		if got := m.Fingerprint().String(); got != w {
			t.Errorf("%s: fingerprint %s, pinned %s", name, got, w)
		}
	}
	if len(Names()) != len(want) {
		t.Errorf("registry has %d builtins, %d pinned", len(Names()), len(want))
	}

	corpus := map[string]string{
		"spec01.json": "14b3b4f15eca39eeaeb3dfe9647ff35b",
		"spec02.json": "07f37ab9093403fdeb4222d3e6c1c4f1",
		"spec03.json": "bb8c128637c644fedea56b4908dc213c",
		"spec04.json": "a58e1db16b938a4484c6033adfa291e2",
		"spec05.json": "c8bef521f23741c13b4a0e8e8f1720f5",
	}
	for file, w := range corpus {
		data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "corpus", "specs", file))
		if err != nil {
			t.Fatal(err)
		}
		s, err := ParseSpec(data)
		if err != nil {
			t.Fatal(err)
		}
		m, err := s.Machine()
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Fingerprint().String(); got != w {
			t.Errorf("%s: fingerprint %s, pinned %s", file, got, w)
		}
	}

	memSpec := SpecOf(NewPOWER1())
	memSpec.Memory = SpecOfHierarchy(POWER1Memory())
	mem, err := memSpec.Machine()
	if err != nil {
		t.Fatal(err)
	}
	if got, w := mem.Fingerprint().String(), "84a9149099c35df4f9677b22fbd5a0d0"; got != w {
		t.Errorf("POWER1 with memory: fingerprint %s, pinned %s", got, w)
	}
}

// TestFingerprintTableOrderPaths checks the precomputed-order table
// hash against the per-call sorted one on every cell of a template
// sweep, and that a key outside ir.AllOps takes the sorted path.
func TestFingerprintTableOrderPaths(t *testing.T) {
	tpl, err := ParseTemplate([]byte(`{
		"base_machine": "POWER1",
		"dispatch": [2, 4],
		"pipes": {"FPU": [1, 2], "FXU": [1, 3]},
		"ops": {"fmul": [
			[{"name": "fmul", "segments": [{"unit": "FPU", "noncov": 1, "cov": 1}]}],
			[{"name": "fmul", "segments": [{"unit": "FPU", "noncov": 2, "cov": 3}]}]
		]}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	cells, err := tpl.Expand()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, c := range cells {
		m, err := c.Spec.Machine()
		if err != nil {
			t.Fatal(err)
		}
		fast, ok := mixTableByOpName(source.Fingerprint{}, m.Table)
		if !ok {
			t.Fatalf("%s: builtin-op table fell off the fast path", c.Spec.Name)
		}
		if slow := mixTableSorted(source.Fingerprint{}, m.Table); fast != slow {
			t.Errorf("%s: table hash %s by op order, %s by sorted names", c.Spec.Name, fast, slow)
		}
		seen[m.Fingerprint().String()] = true
	}
	if len(seen) != len(cells) {
		t.Errorf("%d cells share %d fingerprints", len(cells), len(seen))
	}

	m := ReferencePOWER1()
	m.Table[ir.Op(-1)] = m.Table[ir.OpFAdd]
	if _, ok := mixTableByOpName(source.Fingerprint{}, m.Table); ok {
		t.Error("table with an out-of-range op stayed on the fast path")
	}
	if m.Fingerprint() == NewPOWER1().Fingerprint() {
		t.Error("extra out-of-range op did not change the fingerprint")
	}
}

// TestFingerprintAllocs guards the allocation-free hash: the
// fingerprint runs on every cache probe of every estimator.
func TestFingerprintAllocs(t *testing.T) {
	m := ReferencePOWER1() // a struct literal: hashed on every call
	m.Memory = POWER1Memory()
	if n := testing.AllocsPerRun(100, func() { _ = m.Fingerprint() }); n != 0 {
		t.Errorf("Fingerprint allocates %.0f times per call, want 0", n)
	}
}
