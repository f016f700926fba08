package comm

import (
	"testing"

	"perfpredict/internal/symexpr"
)

func TestPatternStrings(t *testing.T) {
	for p, want := range map[Pattern]string{
		PatternLocal: "local", PatternShift: "shift",
		PatternGather: "gather", PatternRemap: "remap",
	} {
		if p.String() != want {
			t.Errorf("%d: %q", p, p.String())
		}
	}
}

// Scaled and negated subscripts exercise the affine extraction paths.
func TestScaledSubscripts(t *testing.T) {
	src := `
program p
  integer i, n
  parameter (n = 32)
  real a(64), b(70)
!hpf$ distribute a(block)
!hpf$ distribute b(block)
  do i = 1, n
    a(2*i) = b(2*i - 1) + b(1 + i*2)
  end do
end
`
	tbl, assign, loops := setup(t, src)
	cost, err := EstimateAssign(tbl, assign, symbolicLoops(loops))
	if err != nil {
		t.Fatal(err)
	}
	// Same variable, same coefficient (2), constant offsets ∓1: shifts.
	for _, rc := range cost.Refs {
		if rc.Pattern != PatternShift {
			t.Errorf("%s: %v", rc.Ref, rc.Pattern)
		}
	}
	// Enumeration agrees on direction of magnitude.
	msgs, elems, err := EnumerateAssign(tbl, assign, loops, 4)
	if err != nil {
		t.Fatal(err)
	}
	if msgs == 0 || elems == 0 {
		t.Errorf("enumeration: %d msgs %d elems", msgs, elems)
	}
}

// Mismatched coefficients (a(i) reading b(2i)) defeat offset analysis:
// conservative gather.
func TestCoefficientMismatchGathers(t *testing.T) {
	src := `
program p
  integer i, n
  parameter (n = 32)
  real a(64), b(70)
!hpf$ distribute a(block)
!hpf$ distribute b(block)
  do i = 1, n
    a(i) = b(2*i)
  end do
end
`
	tbl, assign, loops := setup(t, src)
	cost, err := EstimateAssign(tbl, assign, symbolicLoops(loops))
	if err != nil {
		t.Fatal(err)
	}
	if len(cost.Refs) != 1 || cost.Refs[0].Pattern != PatternGather {
		t.Errorf("refs: %+v", cost.Refs)
	}
	// The enumerator stays exact regardless.
	if _, _, err := EnumerateAssign(tbl, assign, loops, 4); err != nil {
		t.Fatal(err)
	}
}

// Symbolic-invariant offsets (i+k with unknown k) also gather.
func TestSymbolicOffsetGathers(t *testing.T) {
	src := `
subroutine p(k)
  integer i, k, n
  parameter (n = 32)
  real a(64), b(100)
!hpf$ distribute a(block)
!hpf$ distribute b(block)
  do i = 1, n
    a(i) = b(i + k)
  end do
end
`
	tbl, assign, loops := setup(t, src)
	cost, err := EstimateAssign(tbl, assign, symbolicLoops(loops))
	if err != nil {
		t.Fatal(err)
	}
	if len(cost.Refs) != 1 || cost.Refs[0].Pattern != PatternGather {
		t.Errorf("refs: %+v", cost.Refs)
	}
}

// Negated loop subscript b(-i + 64): affine with coefficient −1 against
// +1 — reversal is a gather (misaligned sweep directions).
func TestReversedSweepGathers(t *testing.T) {
	src := `
program p
  integer i, n
  parameter (n = 32)
  real a(64), b(70)
!hpf$ distribute a(block)
!hpf$ distribute b(block)
  do i = 1, n
    a(i) = b(64 - i)
  end do
end
`
	tbl, assign, loops := setup(t, src)
	cost, err := EstimateAssign(tbl, assign, symbolicLoops(loops))
	if err != nil {
		t.Fatal(err)
	}
	if len(cost.Refs) != 1 || cost.Refs[0].Pattern != PatternGather {
		t.Errorf("refs: %+v", cost.Refs)
	}
	msgs, elems, err := EnumerateAssign(tbl, assign, loops, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Most references are remote under reversal.
	if elems < 10 || msgs < 2 {
		t.Errorf("enumeration: %d msgs %d elems", msgs, elems)
	}
}

// EnumerateAssign evaluates division, negation and intrinsics in
// subscripts.
func TestEnumerateSubscriptArith(t *testing.T) {
	src := `
program p
  integer i, n
  parameter (n = 16)
  real a(64), b(70)
!hpf$ distribute a(block)
!hpf$ distribute b(block)
  do i = 1, n
    a(i * 4 / 2) = b(i * 2) + b(mod(i, 4) + 1)
  end do
end
`
	tbl, assign, loops := setup(t, src)
	if _, _, err := EnumerateAssign(tbl, assign, loops, 4); err != nil {
		t.Fatal(err)
	}
}

func TestEnumerateErrors(t *testing.T) {
	src := `
program p
  integer i, n
  parameter (n = 8)
  real a(64), b(64)
!hpf$ distribute a(block)
!hpf$ distribute b(block)
  do i = 1, n
    a(i) = b(i + 1)
  end do
end
`
	tbl, assign, loops := setup(t, src)
	// Unbound variable in a subscript: rewrite the loop var name.
	loops[0].Var = "zz"
	if _, _, err := EnumerateAssign(tbl, assign, loops, 4); err == nil {
		t.Error("unbound subscript variable accepted")
	}
}

func TestZeroStepDefaultsToOne(t *testing.T) {
	src := `
program p
  integer i, n
  parameter (n = 8)
  real a(64), b(64)
!hpf$ distribute a(block)
!hpf$ distribute b(block)
  do i = 1, n
    a(i) = b(i+1)
  end do
end
`
	tbl, assign, loops := setup(t, src)
	loops[0].Step = 0
	if _, _, err := EnumerateAssign(tbl, assign, loops, 4); err != nil {
		t.Fatal(err)
	}
}

func TestCyclicSymbolicMsgsScaleWithP(t *testing.T) {
	tbl, assign, loops := setup(t, stencilCyclic)
	cost, err := EstimateAssign(tbl, assign, symbolicLoops(loops))
	if err != nil {
		t.Fatal(err)
	}
	m4 := cost.Msgs.MustEval(map[symexpr.Var]float64{PVar: 4})
	m8 := cost.Msgs.MustEval(map[symexpr.Var]float64{PVar: 8})
	if m8 != 2*m4 {
		t.Errorf("ring-shift messages should scale with P: %v vs %v", m4, m8)
	}
}
