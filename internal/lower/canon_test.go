package lower

import (
	"testing"

	"perfpredict/internal/ir"
	"perfpredict/internal/machine"
)

// Affine subscript canonicalization: unrolled forms like x((i+1)+1)
// must produce the same address string as x(i+2), so CSE, dependence
// analysis and register promotion all see through them.
func TestSubscriptCanonicalization(t *testing.T) {
	src := `
program p
  integer i, n
  real a(100), b(100)
  do i = 1, n
    b(i) = a((i+1)+1) + a(i+2) + a(2+i) + a(i+3-1)
  end do
end
`
	lw := lowerBody(t, src, DefaultOptions())
	// All four references canonicalize to a(i+2): one load.
	loads := 0
	for _, in := range lw.Body.Instrs {
		if in.Op.IsLoad() {
			loads++
			if got := lw.Names.Text(in.Addr); got != "a(i+2)" {
				t.Errorf("addr = %q, want a(i+2)", got)
			}
		}
	}
	if loads != 1 {
		t.Errorf("loads = %d, want 1 (canonical CSE)\n%s", loads, lw.Body)
	}
	// No explicit address arithmetic (all unit-stride affine).
	if lw.Body.Counts()[ir.OpAddr] != 0 {
		t.Errorf("addr ops emitted:\n%s", lw.Body)
	}
}

func TestSubscriptCanonNegativeAndScaled(t *testing.T) {
	src := `
program p
  integer i, n
  real a(300), b(100)
  do i = 1, n
    b(i) = a(2*i+1) + a(1+i*2) + a(3-i)
  end do
end
`
	lw := lowerBody(t, src, DefaultOptions())
	var addrs []string
	for _, in := range lw.Body.Instrs {
		if in.Op.IsLoad() {
			addrs = append(addrs, lw.Names.Text(in.Addr))
		}
	}
	// 2*i+1 twice (CSE'd into one) + 3-i (= -i+3).
	if len(addrs) != 2 {
		t.Fatalf("addrs: %v\n%s", addrs, lw.Body)
	}
	seen := map[string]bool{}
	for _, a := range addrs {
		seen[a] = true
	}
	if !seen["a(2*i+1)"] {
		t.Errorf("missing canonical scaled form: %v", addrs)
	}
	if !seen["a(-i+3)"] {
		t.Errorf("missing canonical negated form: %v", addrs)
	}
	// Stride-2 addressing is not update-form: explicit addr arithmetic
	// appears for the scaled form.
	if lw.Body.Counts()[ir.OpAddr] == 0 {
		t.Errorf("stride-2 subscript should cost address arithmetic\n%s", lw.Body)
	}
}

// Promotion must see through rewritten subscripts: after unrolling,
// c((i+1),j)-style references still promote per distinct address.
func TestPromotionOnCanonicalAddrs(t *testing.T) {
	src := `
program p
  integer i, j, k, n
  real c(64,64), a(64,64)
  do i = 1, n
    do j = 1, n
      do k = 1, n
        c(i,j) = c(i,j) + a(i,k)
        c((i+1)-1,j) = c(i+0,j) * 2.0
      end do
    end do
  end do
end
`
	lw := lowerBody(t, src, DefaultOptions())
	// Both statements reference the same canonical c(i,j): one promoted
	// location, zero body stores.
	if len(lw.Promoted) != 1 || lw.Names.Text(lw.Promoted[0].Addr) != "c(i,j)" {
		t.Fatalf("promoted: %+v", lw.Promoted)
	}
	if lw.Body.Counts()[ir.OpFStore] != 0 {
		t.Errorf("stores left in body:\n%s", lw.Body)
	}
	if lw.Post.Counts()[ir.OpFStore] != 1 {
		t.Errorf("post:\n%s", lw.Post)
	}
}

// The register-pressure heuristic (§2.2.1) interacts sanely with the
// other passes: spills appear but the block still prices.
func TestRegisterPressureWithPromotion(t *testing.T) {
	src := `
program p
  integer i, n
  real s, a(100), b(100), c(100), d(100)
  do i = 1, n
    s = s + a(i) * b(i) + c(i) * d(i)
  end do
end
`
	opt := DefaultOptions()
	opt.RegisterPressure = 3
	lw := lowerBody(t, src, opt)
	ops := lw.Body.Counts()
	if ops[ir.OpFStore] == 0 {
		t.Errorf("no spill store forced: %v\n%s", ops, lw.Body)
	}
	// The accumulator is still promoted.
	found := false
	for _, pv := range lw.Promoted {
		if lw.Names.Text(pv.Addr) == "s" {
			found = true
		}
	}
	if !found {
		t.Errorf("s not promoted: %+v", lw.Promoted)
	}
}

// Scalar1 lowering must not emit FMA, and promotion still works there.
func TestScalarMachinePromotion(t *testing.T) {
	tbl, body := prep(t, `
program p
  integer i, n
  real s, a(100)
  do i = 1, n
    s = s + a(i)
  end do
end
`)
	stmts, vars := innermost(body)
	tr := New(tbl, machine.NewScalar1(), DefaultOptions())
	lw, err := tr.Body(stmts, vars)
	if err != nil {
		t.Fatal(err)
	}
	if lw.Body.Counts()[ir.OpFMA] != 0 {
		t.Error("FMA on scalar machine")
	}
	if len(lw.Promoted) != 1 {
		t.Errorf("promotion should be machine independent: %+v", lw.Promoted)
	}
}
