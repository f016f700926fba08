package invariants

import (
	"fmt"
	"os"
	"testing"

	"perfpredict/internal/machine"
	"perfpredict/internal/progen"
)

// latticeTemplates are the hand-written templates of the lattice
// differential test: the 24-cell sweep the explore benchmark runs, the
// fuzz seeds, and templates with two op dimensions, a memory hierarchy
// and budget weights.
var latticeTemplates = map[string]string{
	"lattice24":     `{"base_machine":"POWER1","dispatch":[2,5],"pipes":{"FPU":[1,3],"FXU":[1,2]}}`,
	"fuzz-dispatch": `{"base_machine":"POWER1","dispatch":[4,5]}`,
	"fuzz-pipes":    `{"base_machine":"POWER1","pipes":{"FPU":[1,2]}}`,
	"fixed":         `{"base_machine":"POWER1"}`,
	"two-ops": `{
		"base_machine": "POWER1",
		"pipes": {"FPU": [1, 2]},
		"ops": {
			"fmul": [
				[{"name": "fm.fast", "segments": [{"unit": "FPU", "noncov": 1}]}],
				[{"name": "fm.slow", "segments": [{"unit": "FPU", "noncov": 1, "cov": 2}]}],
				[{"name": "fm.a", "segments": [{"unit": "FXU", "noncov": 1}]}, {"name": "fm.b", "segments": [{"unit": "FPU", "start": 1, "noncov": 2}]}]
			],
			"fadd": [
				[{"name": "fa.fast", "segments": [{"unit": "FPU", "noncov": 1}]}],
				[{"name": "fa.slow", "segments": [{"unit": "FPU", "noncov": 1, "cov": 3}]}]
			]
		},
		"budget": {"default_pipe_weight": 0.3, "pipe_weights": {"FPU": 2.7}, "dispatch_weight": 0.1}
	}`,
}

func parseTemplate(t *testing.T, data string) *machine.SpecTemplate {
	t.Helper()
	tpl, err := machine.ParseTemplate([]byte(data))
	if err != nil {
		t.Fatal(err)
	}
	return tpl
}

// TestLatticeEqualsExpand is the differential gate of the compiled
// lattice: every cell of every template equals the full build of its
// expanded spec, and a template with an invalid cell fails Compile
// with Expand's error (internal/machine pins that error to per-cell
// validation).
func TestLatticeEqualsExpand(t *testing.T) {
	check := func(name string, tpl *machine.SpecTemplate) {
		t.Helper()
		for _, msg := range LatticeMismatches(tpl) {
			t.Errorf("%s: %s", name, msg)
		}
	}
	for name, data := range latticeTemplates {
		check(name, parseTemplate(t, data))
	}
	example, err := os.ReadFile("../../examples/design-space/template.json")
	if err != nil {
		t.Fatal(err)
	}
	check("design-space example", parseTemplate(t, string(example)))
	spec, err := os.ReadFile("../../examples/custom-machine/power1mem.json")
	if err != nil {
		t.Fatal(err)
	}
	base, err := machine.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	mem := parseTemplate(t, latticeTemplates["two-ops"])
	mem.BaseMachine, mem.Base, mem.Dispatch = "", base, &machine.IntRange{Min: 2, Max: 3}
	check("memory hierarchy", mem)
	withOps := 0
	for seed := int64(0); seed < 300; seed++ {
		tpl := progen.GenTemplate(progen.NewRand(seed))
		if len(tpl.Ops) > 0 {
			withOps++
		}
		check(fmt.Sprintf("GenTemplate seed %d", seed), tpl)
	}
	if withOps == 0 {
		t.Error("no generated template has op alternatives")
	}

	// The two-pipe alternative of TestTemplateExpandValidatesCells:
	// both fail with one error.
	tpl := parseTemplate(t, `{"base_machine":"POWER1","pipes":{"FPU":[1,2]},"ops":{"fmul":[[
		{"name":"fm.wide","segments":[{"unit":"FPU","noncov":1},{"unit":"FPU","start":2,"noncov":1}]}]]}}`)
	_, expErr := tpl.Expand()
	_, latErr := tpl.Compile()
	if expErr == nil || latErr == nil || expErr.Error() != latErr.Error() {
		t.Errorf("two-pipe alternative: Expand error %v, Compile error %v; want the same error", expErr, latErr)
	}
}
