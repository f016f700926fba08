package perfpredict

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"perfpredict/internal/kernels"
	"perfpredict/internal/machine"
)

// specVsReferencePairs matches each spec-loaded builtin with the seed
// hand-coded constructor it must reproduce exactly.
func specVsReferencePairs() []struct {
	name      string
	spec, ref *Target
} {
	return []struct {
		name      string
		spec, ref *Target
	}{
		{"POWER1", POWER1(), machine.ReferencePOWER1()},
		{"SuperScalar2", SuperScalar2(), machine.ReferenceSuperScalar2()},
		{"Scalar1", Scalar1(), machine.ReferenceScalar1()},
	}
}

func predictionSignature(p *Prediction) string {
	return fmt.Sprintf("cost=%s|onetime=%s|unknowns=%+v", p.Cost, p.OneTime, p.Unknowns)
}

// TestSpecDifferentialPredictions is the acceptance check for the
// data-driven target descriptions: for every embedded kernel and every
// builtin target, the spec-loaded machine must produce byte-identical
// prediction formulas to the seed constructor.
func TestSpecDifferentialPredictions(t *testing.T) {
	for _, pair := range specVsReferencePairs() {
		for _, k := range kernels.All() {
			fromSpec, specErr := Predict(k.Src, pair.spec)
			fromRef, refErr := Predict(k.Src, pair.ref)
			if (specErr == nil) != (refErr == nil) {
				t.Errorf("%s/%s: error divergence: spec %v, ref %v", pair.name, k.Name, specErr, refErr)
				continue
			}
			if specErr != nil {
				if specErr.Error() != refErr.Error() {
					t.Errorf("%s/%s: different errors: spec %v, ref %v", pair.name, k.Name, specErr, refErr)
				}
				continue
			}
			if got, want := predictionSignature(fromSpec), predictionSignature(fromRef); got != want {
				t.Errorf("%s/%s: prediction diverged:\nspec %s\nref  %s", pair.name, k.Name, got, want)
			}
		}
	}
}

// TestSpecDifferentialAccuracyTables compares the Figure-7-style
// innermost-block accuracy analysis — predicted and simulated cycle
// counts, the op-count baseline, and the critical unit — between
// spec-loaded and reference machines on every kernel.
func TestSpecDifferentialAccuracyTables(t *testing.T) {
	for _, pair := range specVsReferencePairs() {
		for _, k := range kernels.All() {
			fromSpec, specErr := AnalyzeInnermostBlock(k.Src, pair.spec)
			fromRef, refErr := AnalyzeInnermostBlock(k.Src, pair.ref)
			if (specErr == nil) != (refErr == nil) {
				t.Errorf("%s/%s: error divergence: spec %v, ref %v", pair.name, k.Name, specErr, refErr)
				continue
			}
			if specErr != nil {
				if specErr.Error() != refErr.Error() {
					t.Errorf("%s/%s: different errors: spec %v, ref %v", pair.name, k.Name, specErr, refErr)
				}
				continue
			}
			if !reflect.DeepEqual(fromSpec, fromRef) {
				t.Errorf("%s/%s: accuracy report diverged:\nspec %+v\nref  %+v", pair.name, k.Name, fromSpec, fromRef)
			}
		}
	}
}

func TestLoadTargetByNameAndPath(t *testing.T) {
	byName, err := LoadTarget("power1") // case-insensitive registry hit
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(machine.SpecOf(byName), machine.SpecOf(machine.ReferencePOWER1())) {
		t.Error("LoadTarget(name) differs from the reference machine")
	}

	// A spec file on disk loads as a custom target.
	spec := machine.SpecOf(machine.ReferencePOWER1())
	spec.Name = "POWER1-disk"
	data, err := spec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "p1.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	byPath, err := LoadTarget(path)
	if err != nil {
		t.Fatal(err)
	}
	if byPath.Name != "POWER1-disk" {
		t.Errorf("loaded target name = %q, want POWER1-disk", byPath.Name)
	}
	pathSpec := machine.SpecOf(byPath)
	pathSpec.Name = byName.Name
	if !reflect.DeepEqual(pathSpec, machine.SpecOf(byName)) {
		t.Error("spec file and registry lookup disagree beyond the name")
	}

	// Unknown names fail with the list of valid targets.
	_, err = LoadTarget("PentiumPro")
	if err == nil {
		t.Fatal("unknown target accepted")
	}
	for _, want := range append(TargetNames(), "PentiumPro") {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}

	// Malformed spec files report parse errors, not registry errors.
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"name": 42}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTarget(bad); err == nil {
		t.Error("malformed spec file accepted")
	}
}

func TestTargetNames(t *testing.T) {
	want := []string{"POWER1", "Scalar1", "SuperScalar2"}
	if got := TargetNames(); !reflect.DeepEqual(got, want) {
		t.Errorf("TargetNames() = %v, want %v", got, want)
	}
}

// Every way a target reference can go wrong maps to a distinct,
// attributable error: unknown names list the registry, unreadable
// paths say so, and file contents fail at the precise layer (JSON
// shape, spec schema, or semantic validation) with the path in the
// message.
func TestLoadTargetErrorTable(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, data []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	valid, err := machine.SpecOf(machine.ReferenceScalar1()).Encode()
	if err != nil {
		t.Fatal(err)
	}
	// Parses as a spec but fails validation: drop every unit, so the
	// atomic operations reference units the machine does not have.
	invalid := machine.SpecOf(machine.ReferenceScalar1())
	invalid.Units = map[string]int{}
	invalidJSON, err := invalid.Encode()
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		ref  string
		want string // substring of the error
	}{
		{"unknown name, no file", "NoSuchMachine", "unknown machine"},
		{"directory instead of file", dir, "unknown machine"},
		{"empty file", write("empty.json", nil), "machine spec"},
		{"not json", write("garbage.json", []byte("pipes: 3")), "machine spec"},
		{"unknown field", write("typo.json", []byte(`{"pipes": 3}`)), "unknown field"},
		{"trailing document", write("two.json", append(append([]byte{}, valid...), valid...)), "trailing data"},
		{"parses but invalid", write("nounits.json", invalidJSON), "no units"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := LoadTarget(tc.ref)
			if err == nil {
				t.Fatalf("LoadTarget(%q) succeeded; want error", tc.ref)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("LoadTarget(%q) error %q, want substring %q", tc.ref, err, tc.want)
			}
		})
	}
}
