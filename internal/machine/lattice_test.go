package machine

import (
	"fmt"
	"os"
	"reflect"
	"sync"
	"testing"
)

// invalidCellTemplates each pass template-level validation but have a
// cell Spec.Validate rejects: at the first cell, only at a later cell,
// or through rules no pipe count decides.
var invalidCellTemplates = map[string]string{
	"two-pipe alternative": `{"base_machine":"POWER1","pipes":{"FPU":[1,2]},"ops":{"fmul":[[
		{"name":"fm.wide","segments":[{"unit":"FPU","noncov":1},{"unit":"FPU","start":2,"noncov":1}]}]]}}`,
	"second cell": `{"base_machine":"POWER1","pipes":{"FPU":[1,2]},"ops":{"fmul":[
		[{"name":"fm","segments":[{"unit":"FPU","noncov":1}]}],
		[{"name":"fm.wide","segments":[{"unit":"FPU","noncov":1},{"unit":"FPU","start":2,"noncov":1}]}]]}}`,
	"unknown unit": `{"base_machine":"POWER1","dispatch":[4,5],"ops":{"fmul":[
		[{"name":"fm","segments":[{"unit":"FPU","noncov":1}]}],
		[{"name":"fm.v","segments":[{"unit":"VPU","noncov":1}]}]]}}`,
	"zero duration": `{"base_machine":"POWER1","ops":{"fadd":[[{"name":"fa","segments":[{"unit":"FPU"}]}]]}}`,
	"unnamed atom":  `{"base_machine":"POWER1","ops":{"fadd":[[{"segments":[{"unit":"FPU","noncov":1}]}]]}}`,
	"overlap": `{"base_machine":"POWER1","pipes":{"FPU":[2,3]},"ops":{"fadd":[[
		{"name":"fa","segments":[{"unit":"FPU","noncov":2},{"unit":"FPU","start":1,"noncov":1}]}]]}}`,
	"negative start": `{"base_machine":"POWER1","pipes":{"FXU":[1,2]},"ops":{"fadd":[
		[{"name":"fa","segments":[{"unit":"FPU","noncov":1}]}],
		[{"name":"fa","segments":[{"unit":"FPU","start":-1,"noncov":1}]}]]}}`,
}

// TestCompileRejectsLikeCellValidation: Expand and Compile find an
// invalid cell by an integer check over its choices; the error must
// still be the one validating every cell in order gives, here built
// by the legacy JSON-round-trip expansion.
func TestCompileRejectsLikeCellValidation(t *testing.T) {
	for name, data := range invalidCellTemplates {
		t.Run(name, func(t *testing.T) {
			tpl, err := ParseTemplate([]byte(data))
			if err != nil {
				t.Fatal(err)
			}
			var want error
			for _, enc := range legacyCellEncodings(t, tpl) {
				s, err := ParseSpec(enc)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.Validate(); err != nil {
					want = fmt.Errorf("spec template: cell %s: %w", s.Name, err)
					break
				}
			}
			if want == nil {
				t.Fatal("no cell of the template is invalid")
			}
			_, expErr := tpl.Expand()
			_, latErr := tpl.Compile()
			for fn, got := range map[string]error{"Expand": expErr, "Compile": latErr} {
				if got == nil || got.Error() != want.Error() {
					t.Errorf("%s error %v, want %v", fn, got, want)
				}
			}
		})
	}
}

// gateTemplate ranges FPU pipes and the fmul expansion over base, so
// a perturbation of any other part of the base reaches every cell.
func gateTemplate(base *Spec) *SpecTemplate {
	return &SpecTemplate{
		Base:  base,
		Pipes: map[string]IntRange{"FPU": {Min: 1, Max: 2}},
		Ops: map[string][][]AtomicOpSpec{"fmul": {
			{{Name: "fm.fast", Segments: []SegmentSpec{{Unit: "FPU", Noncov: 1}}}},
			{{Name: "fm.slow", Segments: []SegmentSpec{{Unit: "FPU", Noncov: 1, Cov: 2}}}},
		}},
	}
}

// latticeFingerprints compiles tpl and returns each cell's fingerprint,
// checking it against the full build of the expanded cell.
func latticeFingerprints(t *testing.T, tpl *SpecTemplate) []string {
	t.Helper()
	lat, err := tpl.Compile()
	if err != nil {
		t.Fatal(err)
	}
	cells, err := tpl.Expand()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, lat.Len())
	for i := range out {
		m, err := cells[i].Spec.Machine()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = lat.Cell(i).Machine.Fingerprint().String()
		if want := m.Fingerprint().String(); out[i] != want {
			t.Errorf("cell %d: lattice fingerprint %s, full build %s", i, out[i], want)
		}
	}
	return out
}

// TestSpecFieldsReachLatticeFingerprints walks Spec by reflection,
// perturbs each field of a template's inline base in turn, and
// requires both the base's own fingerprint and every compiled cell's
// to change, so a Spec field added later cannot be dropped by the
// shared-table path of Compile.
func TestSpecFieldsReachLatticeFingerprints(t *testing.T) {
	data, err := os.ReadFile("../../examples/custom-machine/power1mem.json")
	if err != nil {
		t.Fatal(err)
	}
	fresh := func() *Spec {
		s, err := ParseSpec(data)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	fingerprintOf := func(s *Spec) string {
		m, err := s.Machine()
		if err != nil {
			t.Fatal(err)
		}
		return m.Fingerprint().String()
	}
	baseFP := fingerprintOf(fresh())
	cellFPs := latticeFingerprints(t, gateTemplate(fresh()))
	typ := reflect.TypeOf(Spec{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		s := fresh()
		v := reflect.ValueOf(s).Elem().Field(i)
		switch x := v.Addr().Interface().(type) {
		case *string:
			*x += "'"
		case *int:
			*x++
		case *bool:
			*x = !*x
		case *map[string]int:
			(*x)["FXU"]++ // not ranged by gateTemplate
		case *map[string][]AtomicOpSpec:
			(*x)["fadd"][0].Segments[0].Cov++ // fmul is ranged
		case **MemorySpec:
			(*x).Levels[0].MissPenalty++
		default:
			t.Fatalf("%s: no perturbation for type %s", f.Name, f.Type)
		}
		if fingerprintOf(s) == baseFP {
			t.Errorf("%s: perturbing it left Spec.Machine's fingerprint unchanged", f.Name)
		}
		for c, fp := range latticeFingerprints(t, gateTemplate(s)) {
			if fp == cellFPs[c] {
				t.Errorf("%s: perturbing it left cell %d's fingerprint unchanged", f.Name, c)
			}
		}
	}
}

// TestLatticeCellsAreSealed edits every exported field of one cell's
// machine, including the table and hierarchy its tuple's cells share,
// and requires no cell's fingerprint, description or cost table to
// change, on the machines already built or on fresh ones.
func TestLatticeCellsAreSealed(t *testing.T) {
	lat, err := memTemplate(t).Compile()
	if err != nil {
		t.Fatal(err)
	}
	build := func() []*Machine {
		out := make([]*Machine, lat.Len())
		for i := range out {
			out[i] = lat.Cell(i).Machine
		}
		return out
	}
	snapshot := func(ms []*Machine) []string {
		var out []string
		for _, m := range ms {
			enc, err := SpecOf(m).Encode()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, fmt.Sprintf("%s %s %v %v", m.Fingerprint(), enc, m.Compiled().Costs().KindPipes, m.Latency(1)))
		}
		return out
	}
	cells := build()
	before := snapshot(cells)
	m := cells[0]
	m.Name = "edited"
	m.DispatchWidth = 99
	m.UnitCounts[FPU] = 9
	for _, seq := range m.Table {
		seq[0].Segments[0].Cov += 5
	}
	m.Memory.Levels[0].MissPenalty = 1234
	m.HasFMA = !m.HasFMA
	if !reflect.DeepEqual(snapshot(cells), before) {
		t.Error("editing a cell machine's exported fields changed a built cell")
	}
	if !reflect.DeepEqual(snapshot(build()), before) {
		t.Error("editing a cell machine's exported fields changed a later cell")
	}
}

// TestLatticeCellsConcurrent builds every cell from four goroutines at
// once; the op tuples are built lazily, so under -race this checks
// that concurrent first uses are safe, and each cell must equal a
// serially built one.
func TestLatticeCellsConcurrent(t *testing.T) {
	tpl := memTemplate(t)
	want := latticeFingerprints(t, tpl)
	lat, err := tpl.Compile()
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]string, 4)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < lat.Len(); i++ {
				got[w] = append(got[w], lat.Cell(i).Machine.Fingerprint().String())
			}
		}()
	}
	wg.Wait()
	for w := range got {
		if !reflect.DeepEqual(got[w], want) {
			t.Errorf("goroutine %d built %v, want %v", w, got[w], want)
		}
	}
}
