package machine

import (
	"reflect"
	"strings"
	"testing"
)

func TestRegistryLookup(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(SpecOf(ReferencePOWER1())); err != nil {
		t.Fatal(err)
	}
	m, err := r.Lookup("POWER1")
	if err != nil {
		t.Fatal(err)
	}
	if !sameDescription(m, ReferencePOWER1()) {
		t.Error("looked-up machine differs from the registered spec's machine")
	}

	// Lookup is case-insensitive.
	if _, err := r.Lookup("power1"); err != nil {
		t.Errorf("case-insensitive lookup failed: %v", err)
	}

	// Each lookup builds a fresh machine: mutating one caller's copy
	// must not leak into the next.
	m.DispatchWidth = 99
	m2, err := r.Lookup("POWER1")
	if err != nil {
		t.Fatal(err)
	}
	if m2.DispatchWidth == 99 {
		t.Error("Lookup returned a shared machine; mutation leaked between callers")
	}
}

func TestRegistryDuplicateAndInvalid(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(SpecOf(ReferencePOWER1())); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(SpecOf(ReferencePOWER1())); err == nil {
		t.Error("duplicate registration accepted")
	}
	bad := SpecOf(ReferencePOWER1())
	bad.Name = "Broken"
	bad.DispatchWidth = -1
	if err := r.Register(bad); err == nil {
		t.Error("invalid spec registered")
	}
	if _, err := r.Lookup("Broken"); err == nil {
		t.Error("invalid spec became visible despite failed registration")
	}
}

func TestRegistryUnknownNameListsChoices(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(SpecOf(ReferencePOWER1())); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(SpecOf(ReferenceScalar1())); err != nil {
		t.Fatal(err)
	}
	_, err := r.Lookup("PentiumPro")
	if err == nil {
		t.Fatal("unknown machine accepted")
	}
	for _, want := range []string{"PentiumPro", "POWER1", "Scalar1"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

func TestRegistryNamesSorted(t *testing.T) {
	r := NewRegistry()
	for _, m := range []*Machine{ReferenceSuperScalar2(), ReferencePOWER1(), ReferenceScalar1()} {
		if err := r.Register(SpecOf(m)); err != nil {
			t.Fatal(err)
		}
	}
	got := r.Names()
	want := []string{"POWER1", "Scalar1", "SuperScalar2"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Names() = %v, want %v", got, want)
	}
}

func TestDefaultRegistryHasBuiltins(t *testing.T) {
	want := []string{"POWER1", "Scalar1", "SuperScalar2"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Errorf("default registry names = %v, want %v", got, want)
	}
	for _, name := range want {
		if _, err := Lookup(name); err != nil {
			t.Errorf("Lookup(%s): %v", name, err)
		}
	}
}

// Lookup resolves names case-insensitively but does no other repair:
// whitespace, empty names, and near-misses all fail, and every
// failure names the registered alternatives so the caller's error is
// actionable.
func TestRegistryLookupErrorTable(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(SpecOf(ReferencePOWER1())); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		in   string
	}{
		{"empty name", ""},
		{"unknown name", "POWER9"},
		{"leading space", " POWER1"},
		{"trailing space", "POWER1 "},
		{"interior punctuation", "POWER-1"},
		{"prefix of a name", "POWER"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := r.Lookup(tc.in)
			if err == nil {
				t.Fatalf("Lookup(%q) succeeded; want error", tc.in)
			}
			if !strings.Contains(err.Error(), "POWER1") {
				t.Errorf("Lookup(%q) error %q does not list the registered names", tc.in, err)
			}
		})
	}
}
