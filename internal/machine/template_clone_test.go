package machine

import (
	"bytes"
	"fmt"
	"os"
	"testing"
)

// memTemplate ranges dispatch, FPU pipes and an fmul alternative over
// a base with a cache and TLB hierarchy, so every part of a Spec a
// cell can carry — unit map, op table, memory levels, TLB — is
// exercised.
func memTemplate(t *testing.T) *SpecTemplate {
	t.Helper()
	data, err := os.ReadFile("../../examples/custom-machine/power1mem.json")
	if err != nil {
		t.Fatal(err)
	}
	base, err := ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if base.Memory == nil || base.Memory.TLB == nil {
		t.Fatal("power1mem.json lost its memory hierarchy")
	}
	return &SpecTemplate{
		Base:     base,
		Dispatch: &IntRange{Min: 2, Max: 3},
		Pipes:    map[string]IntRange{"FPU": {Min: 1, Max: 2}},
		Ops: map[string][][]AtomicOpSpec{"fmul": {
			{{Name: "fm.fast", Segments: []SegmentSpec{{Unit: "FPU", Noncov: 1}}}},
			{{Name: "fm.slow", Segments: []SegmentSpec{{Unit: "FPU", Noncov: 1, Cov: 2}}}},
		}},
	}
}

// legacyCellEncodings expands tpl the way Expand did before it cloned
// the base directly: every cell re-parsed the base's canonical JSON.
func legacyCellEncodings(t *testing.T, tpl *SpecTemplate) [][]byte {
	t.Helper()
	size, err := tpl.Size()
	if err != nil {
		t.Fatal(err)
	}
	base, err := tpl.ResolveBase()
	if err != nil {
		t.Fatal(err)
	}
	baseData, err := base.Encode()
	if err != nil {
		t.Fatal(err)
	}
	dims := tpl.dimensions()
	idx := make([]int, len(dims))
	var out [][]byte
	for cell := 0; cell < size; cell++ {
		s, err := ParseSpec(baseData)
		if err != nil {
			t.Fatal(err)
		}
		var suffix bytes.Buffer
		for i, d := range dims {
			v := d.lo + idx[i]
			if suffix.Len() > 0 {
				suffix.WriteByte(',')
			}
			switch {
			case d.op != "":
				fmt.Fprintf(&suffix, "%s@%d", d.name, v)
				s.Ops[d.op] = cloneAtomicOps(tpl.Ops[d.op][v])
			case d.unit != "":
				fmt.Fprintf(&suffix, "%s=%d", d.name, v)
				s.Units[d.unit] = v
			default:
				fmt.Fprintf(&suffix, "dispatch=%d", v)
				s.DispatchWidth = v
			}
		}
		if suffix.Len() > 0 {
			s.Name = s.Name + "[" + suffix.String() + "]"
		}
		enc, err := s.Encode()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, enc)
		for i := len(dims) - 1; i >= 0; i-- {
			idx[i]++
			if idx[i] < dims[i].n {
				break
			}
			idx[i] = 0
		}
	}
	return out
}

func encodeCells(t *testing.T, cells []Expanded) [][]byte {
	t.Helper()
	out := make([][]byte, len(cells))
	for i, c := range cells {
		enc, err := c.Spec.Encode()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = enc
	}
	return out
}

// TestExpandMatchesJSONRoundTrip pins Expand's direct clone of the
// base to the JSON round trip it replaced: every cell encodes byte for
// byte as before.
func TestExpandMatchesJSONRoundTrip(t *testing.T) {
	for name, tpl := range map[string]*SpecTemplate{
		"power1":     power1Template(t),
		"memory+ops": memTemplate(t),
	} {
		t.Run(name, func(t *testing.T) {
			cells, err := tpl.Expand()
			if err != nil {
				t.Fatal(err)
			}
			want := legacyCellEncodings(t, tpl)
			got := encodeCells(t, cells)
			if len(got) != len(want) {
				t.Fatalf("%d cells, legacy expansion has %d", len(got), len(want))
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Errorf("cell %d encodes differently:\n%s\nlegacy:\n%s", i, got[i], want[i])
				}
			}
		})
	}
}

// TestExpandCellsShareNothing mutates every mutable part of one cell
// and checks that neither the base nor any other cell changes.
func TestExpandCellsShareNothing(t *testing.T) {
	tpl := memTemplate(t)
	base, err := tpl.ResolveBase()
	if err != nil {
		t.Fatal(err)
	}
	baseBefore, err := base.Encode()
	if err != nil {
		t.Fatal(err)
	}
	cells, err := tpl.Expand()
	if err != nil {
		t.Fatal(err)
	}
	before := encodeCells(t, cells)

	s := cells[0].Spec
	s.Units["FXU"] = 7
	s.Ops["fadd"][0].Name = "mutated"
	s.Ops["fadd"][0].Segments[0].Cov = 99
	s.Ops["fmul"][0].Segments[0].Noncov = 42
	s.Ops["iload"] = append(s.Ops["iload"], AtomicOpSpec{Name: "extra"})
	s.Memory.Levels[0].MissPenalty = 1234
	s.Memory.TLB.Entries = 5
	delete(s.Ops, "fsub")

	baseAfter, err := base.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(baseAfter, baseBefore) {
		t.Error("mutating a cell changed the template's base spec")
	}
	after := encodeCells(t, cells)
	for i := 1; i < len(cells); i++ {
		if !bytes.Equal(after[i], before[i]) {
			t.Errorf("mutating cell 0 changed cell %d", i)
		}
	}
	if bytes.Equal(after[0], before[0]) {
		t.Error("cell 0 mutations did not take")
	}
}
