package machine

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"perfpredict/internal/ir"
)

// TestSpecBuiltinsMatchReferences proves the tentpole claim: the
// embedded spec files load to machines byte-identical to the seed
// hand-coded constructors — name, units, dispatch, flags, and every
// segment of every atomic expansion.
func TestSpecBuiltinsMatchReferences(t *testing.T) {
	pairs := []struct {
		name string
		spec *Machine
		ref  *Machine
	}{
		{"POWER1", NewPOWER1(), ReferencePOWER1()},
		{"SuperScalar2", NewSuperScalar2(), ReferenceSuperScalar2()},
		{"Scalar1", NewScalar1(), ReferenceScalar1()},
	}
	for _, p := range pairs {
		if !sameDescription(p.spec, p.ref) {
			t.Errorf("%s: spec-loaded machine differs from reference constructor\nspec: %+v\nref:  %+v", p.name, p.spec, p.ref)
		}
		if p.spec.Fingerprint() != p.ref.Fingerprint() {
			t.Errorf("%s: fingerprint mismatch: spec %s, ref %s", p.name, p.spec.Fingerprint(), p.ref.Fingerprint())
		}
	}
}

// TestSpecRoundTrip: parse → print → parse is the identity, and the
// canonical printing is a fixed point, for every builtin plus a
// machine exercising multi-segment and start-offset cases.
func TestSpecRoundTrip(t *testing.T) {
	machines := []*Machine{ReferencePOWER1(), ReferenceSuperScalar2(), ReferenceScalar1()}
	for _, m := range machines {
		s := SpecOf(m)
		enc, err := s.Encode()
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		s2, err := ParseSpec(enc)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if !reflect.DeepEqual(s, s2) {
			t.Errorf("%s: parse(print(spec)) != spec", m.Name)
		}
		enc2, err := s2.Encode()
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Errorf("%s: canonical encoding is not a fixed point", m.Name)
		}
		m2, err := s2.Machine()
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if !sameDescription(m, m2) {
			t.Errorf("%s: SpecOf∘Machine round trip changed the machine", m.Name)
		}
	}
}

// validSpec returns a fresh spec known to pass Validate, for the
// table-driven mutation tests below.
func validSpec() *Spec { return SpecOf(ReferencePOWER1()) }

func TestSpecValidateErrors(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Spec)
		wantErr string // substring of the error message
	}{
		{
			name:    "empty name",
			mutate:  func(s *Spec) { s.Name = "" },
			wantErr: "empty name",
		},
		{
			name:    "zero dispatch width",
			mutate:  func(s *Spec) { s.DispatchWidth = 0 },
			wantErr: "dispatch width 0",
		},
		{
			name:    "no units",
			mutate:  func(s *Spec) { s.Units = nil },
			wantErr: "no units",
		},
		{
			name:    "nonpositive unit count",
			mutate:  func(s *Spec) { s.Units["FPU"] = 0 },
			wantErr: "unit FPU count 0",
		},
		{
			name:    "unknown basic op",
			mutate:  func(s *Spec) { s.Ops["warp"] = s.Ops["fadd"] },
			wantErr: `unknown basic operation "warp"`,
		},
		{
			name:    "missing mapping",
			mutate:  func(s *Spec) { delete(s.Ops, "fsqrt") },
			wantErr: "missing mapping for fsqrt",
		},
		{
			name:    "empty expansion",
			mutate:  func(s *Spec) { s.Ops["fadd"] = []AtomicOpSpec{} },
			wantErr: "fadd maps to no atomic operations",
		},
		{
			name:    "unnamed atomic op",
			mutate:  func(s *Spec) { s.Ops["fadd"][0].Name = "" },
			wantErr: "unnamed atomic operation",
		},
		{
			name:    "zero-unit atomic op",
			mutate:  func(s *Spec) { s.Ops["fadd"][0].Segments = nil },
			wantErr: "fadd/fa occupies no units",
		},
		{
			name:    "unknown unit",
			mutate:  func(s *Spec) { s.Ops["fadd"][0].Segments[0].Unit = "VPU" },
			wantErr: `references unknown unit "VPU"`,
		},
		{
			name:    "negative start",
			mutate:  func(s *Spec) { s.Ops["fadd"][0].Segments[0].Start = -1 },
			wantErr: "negative start -1",
		},
		{
			name:    "negative cost",
			mutate:  func(s *Spec) { s.Ops["fadd"][0].Segments[0].Noncov = -2 },
			wantErr: "negative cost",
		},
		{
			name: "zero-duration segment",
			mutate: func(s *Spec) {
				s.Ops["fadd"][0].Segments[0].Noncov = 0
				s.Ops["fadd"][0].Segments[0].Cov = 0
			},
			wantErr: "zero-duration segment",
		},
		{
			name: "overlapping segments on one unit",
			mutate: func(s *Spec) {
				s.Ops["fadd"][0].Segments = []SegmentSpec{
					{Unit: "FPU", Start: 0, Noncov: 2},
					{Unit: "FPU", Start: 1, Noncov: 2},
				}
			},
			wantErr: "overlapping segments on FPU",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := validSpec()
			tc.mutate(s)
			err := s.Validate()
			if err == nil {
				t.Fatalf("Validate accepted a spec with %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// Each segment of one atomic operation occupies its own pipe (the
// Tetris placer never assigns two segments of the same op to one
// pipe, even when their busy intervals are disjoint), so same-kind
// segments are legal exactly when the machine has enough pipes of
// that kind. Fuzzing found the old rule — which accepted disjoint
// same-unit segments unconditionally — let through specs the placer
// could never place, sending Estimate into its full scan budget
// before erroring.
func TestSpecValidateSameUnitSegmentsNeedDistinctPipes(t *testing.T) {
	s := validSpec()
	s.Ops["fadd"][0].Segments = []SegmentSpec{
		{Unit: "FPU", Start: 0, Noncov: 1},
		{Unit: "FPU", Start: 2, Noncov: 1, Cov: 1},
	}
	err := s.Validate()
	if err == nil {
		t.Fatal("two FPU segments accepted on a 1-FPU machine")
	}
	if !strings.Contains(err.Error(), "needs 2 pipes of FPU") {
		t.Errorf("error %q does not mention the pipe budget", err)
	}
	s.Units["FPU"] = 2
	if err := s.Validate(); err != nil {
		t.Errorf("disjoint same-unit segments rejected with enough pipes: %v", err)
	}
}

// The machine-level Validate mirrors the spec-level invariants, so
// tables mutated in code fail identically to malformed data.
func TestMachineValidateErrors(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Machine)
		wantErr string
	}{
		{
			name:    "empty expansion",
			mutate:  func(m *Machine) { m.Table[ir.OpFAdd] = []AtomicOp{} },
			wantErr: "maps to no atomic operations",
		},
		{
			name:    "zero-unit atomic op",
			mutate:  func(m *Machine) { m.Table[ir.OpFAdd] = []AtomicOp{{Name: "fa"}} },
			wantErr: "occupies no units",
		},
		{
			name: "negative start",
			mutate: func(m *Machine) {
				m.Table[ir.OpFAdd] = []AtomicOp{{Name: "fa", Segments: []Segment{{Unit: FPU, Start: -3, Noncov: 1}}}}
			},
			wantErr: "negative start",
		},
		{
			name: "overlapping segments",
			mutate: func(m *Machine) {
				m.Table[ir.OpFAdd] = []AtomicOp{{Name: "fa", Segments: []Segment{
					{Unit: FPU, Noncov: 3},
					{Unit: FPU, Start: 2, Noncov: 1},
				}}}
			},
			wantErr: "overlapping segments on FPU",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := ReferencePOWER1()
			tc.mutate(m)
			err := m.Validate()
			if err == nil {
				t.Fatalf("Validate accepted a machine with %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestParseSpecStrict(t *testing.T) {
	if _, err := ParseSpec([]byte(`{"name":"X","dispatch_widht":4}`)); err == nil {
		t.Error("typoed field accepted")
	}
	if _, err := ParseSpec([]byte(`{"name":"X"} {"name":"Y"}`)); err == nil {
		t.Error("trailing document accepted")
	}
	if _, err := ParseSpec([]byte(`not json`)); err == nil {
		t.Error("garbage accepted")
	}
}

func TestFingerprintContentSensitivity(t *testing.T) {
	base := ReferencePOWER1().Fingerprint()

	m := ReferencePOWER1()
	if m.Fingerprint() != base {
		t.Error("identical content, different fingerprints")
	}

	m = ReferencePOWER1()
	m.Name = "POWER1b"
	if m.Fingerprint() == base {
		t.Error("name change not reflected")
	}

	m = ReferencePOWER1()
	m.Table[ir.OpFAdd][0].Segments[0].Noncov = 7
	if m.Fingerprint() == base {
		t.Error("cost-table change not reflected")
	}

	m = ReferencePOWER1()
	m.UnitCounts[FPU] = 2
	if m.Fingerprint() == base {
		t.Error("unit-count change not reflected")
	}

	m = ReferencePOWER1()
	m.HasFMA = false
	if m.Fingerprint() == base {
		t.Error("feature-flag change not reflected")
	}

	m = ReferencePOWER1()
	m.DispatchWidth = 2
	if m.Fingerprint() == base {
		t.Error("dispatch-width change not reflected")
	}

	if ReferencePOWER1().Fingerprint() == ReferenceSuperScalar2().Fingerprint() {
		t.Error("distinct targets share a fingerprint")
	}
	if ReferencePOWER1().Fingerprint() == ReferenceScalar1().Fingerprint() {
		t.Error("distinct targets share a fingerprint")
	}
}

// sameDescription compares what two machines describe: the sealed copy
// of a sealed machine, the fields of a struct-literal one.
func sameDescription(a, b *Machine) bool {
	return reflect.DeepEqual(a.desc(), b.desc())
}
