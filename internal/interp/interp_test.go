package interp

import (
	"math"
	"testing"

	"perfpredict/internal/machine"
	"perfpredict/internal/sem"
	"perfpredict/internal/source"
)

func runner(t *testing.T, src string, opt Options) *Runner {
	t.Helper()
	p, err := source.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	tbl, err := sem.Analyze(p)
	if err != nil {
		t.Fatalf("sem: %v", err)
	}
	return New(p, tbl, opt)
}

func TestScalarArithmetic(t *testing.T) {
	r := runner(t, `
program p
  real x, y
  integer i
  x = 2.0
  y = x**2 + 3.0 * x - 1.0
  i = 7 / 2
end
`, Options{})
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if got := r.Scalar("y"); got != 9 {
		t.Errorf("y = %v, want 9", got)
	}
	if got := r.Scalar("i"); got != 3 {
		t.Errorf("i = %v, want 3 (integer division)", got)
	}
}

func TestLoopAndArray(t *testing.T) {
	r := runner(t, `
program p
  integer i, n
  parameter (n = 10)
  real a(10), s
  do i = 1, n
    a(i) = real(i) * 2.0
  end do
  s = 0.0
  do i = 1, n
    s = s + a(i)
  end do
end
`, Options{})
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if got := r.Scalar("s"); got != 110 {
		t.Errorf("s = %v, want 110", got)
	}
	a := r.Array("a")
	if a[0] != 2 || a[9] != 20 {
		t.Errorf("a = %v", a)
	}
}

func TestColumnMajorIndexing(t *testing.T) {
	r := runner(t, `
program p
  integer i, j
  real a(3, 2)
  do j = 1, 2
    do i = 1, 3
      a(i, j) = real(i) * 10.0 + real(j)
    end do
  end do
end
`, Options{})
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	a := r.Array("a")
	// Column major: a(1,1), a(2,1), a(3,1), a(1,2), ...
	want := []float64{11, 21, 31, 12, 22, 32}
	for i, w := range want {
		if a[i] != w {
			t.Errorf("a[%d] = %v, want %v", i, a[i], w)
		}
	}
}

func TestConditional(t *testing.T) {
	r := runner(t, `
program p
  integer i, n
  real pos, neg, a(20)
  do i = 1, 20
    if (mod(i, 2) .eq. 0) then
      pos = pos + 1.0
    else
      neg = neg + 1.0
    end if
  end do
end
`, Options{})
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if r.Scalar("pos") != 10 || r.Scalar("neg") != 10 {
		t.Errorf("pos=%v neg=%v", r.Scalar("pos"), r.Scalar("neg"))
	}
}

func TestLoopStepAndFinalValue(t *testing.T) {
	r := runner(t, `
program p
  integer i, count
  do i = 1, 10, 3
    count = count + 1
  end do
end
`, Options{})
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if r.Scalar("count") != 4 { // 1, 4, 7, 10
		t.Errorf("count = %v", r.Scalar("count"))
	}
	if r.Scalar("i") != 13 { // Fortran overrun value
		t.Errorf("i = %v, want 13", r.Scalar("i"))
	}
}

func TestSubroutineArgs(t *testing.T) {
	r := runner(t, `
subroutine scale(n, f)
  integer n, i
  real f, a(n)
  do i = 1, n
    a(i) = f
  end do
end
`, Options{})
	r.SetScalar("n", 5)
	r.SetScalar("f", 2.5)
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	a := r.Array("a")
	if len(a) != 5 || a[4] != 2.5 {
		t.Errorf("a = %v", a)
	}
}

func TestJacobiValues(t *testing.T) {
	r := runner(t, `
program jacobi
  integer i, j, n
  parameter (n = 8)
  real a(8,8), b(8,8)
  do j = 1, n
    do i = 1, n
      b(i,j) = real(i + j)
    end do
  end do
  do j = 2, n - 1
    do i = 2, n - 1
      a(i,j) = 0.25 * (b(i-1,j) + b(i+1,j) + b(i,j-1) + b(i,j+1))
    end do
  end do
end
`, Options{})
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	a := r.Array("a")
	// Interior average of i+j neighborhood = i+j.
	idx := (3-1)*8 + (4 - 1) // a(4,3) column-major flat: (j-1)*8+(i-1)
	if math.Abs(a[idx]-7) > 1e-12 {
		t.Errorf("a(4,3) = %v, want 7", a[idx])
	}
}

func TestRunawayGuard(t *testing.T) {
	r := runner(t, `
program p
  integer i
  real x
  do i = 1, 1000000
    x = x + 1.0
  end do
end
`, Options{MaxOps: 1000})
	if err := r.Run(); err == nil {
		t.Error("expected runaway-guard error")
	}
}

func TestIndexOutOfRange(t *testing.T) {
	r := runner(t, `
program p
  integer i
  real a(5)
  i = 9
  a(i) = 1.0
end
`, Options{})
	if err := r.Run(); err == nil {
		t.Error("expected out-of-range error")
	}
}

func TestTimedRunProducesCycles(t *testing.T) {
	src := `
program p
  integer i, n
  parameter (n = 50)
  real a(50), b(50)
  do i = 1, n
    b(i) = a(i) * 2.0 + 1.0
  end do
end
`
	timed := runner(t, src, Options{Machine: machine.NewPOWER1()})
	if err := timed.Run(); err != nil {
		t.Fatal(err)
	}
	cyc := timed.Cycles()
	if cyc <= 0 {
		t.Fatal("no cycles recorded")
	}
	// 50 iterations of a ~4-op body + loop control: between 100 and
	// 1500 cycles is sane.
	if cyc < 100 || cyc > 1500 {
		t.Errorf("cycles = %d out of sane range", cyc)
	}
	// Untimed run gives 0.
	untimed := runner(t, src, Options{})
	if err := untimed.Run(); err != nil {
		t.Fatal(err)
	}
	if untimed.Cycles() != 0 {
		t.Error("untimed run recorded cycles")
	}
}

func TestTimingScalesWithTripCount(t *testing.T) {
	build := func(n int) int64 {
		src := `
subroutine p(n)
  integer i, n
  real a(n), b(n)
  do i = 1, n
    b(i) = a(i) * 2.0 + 1.0
  end do
end
`
		r := runner(t, src, Options{Machine: machine.NewPOWER1()})
		r.SetScalar("n", float64(n))
		if err := r.Run(); err != nil {
			t.Fatal(err)
		}
		return r.Cycles()
	}
	c100, c200 := build(100), build(200)
	ratio := float64(c200) / float64(c100)
	if ratio < 1.7 || ratio > 2.3 {
		t.Errorf("cycles(200)/cycles(100) = %v, want ≈ 2", ratio)
	}
}

func TestRecurrenceSlowerThanParallelLoop(t *testing.T) {
	// a(i) = a(i-1) + b(i) serializes via true memory dependences; the
	// independent version pipelines. The interpreter's concretized
	// addresses must expose that difference.
	run := func(body string) int64 {
		src := `
program p
  integer i, n
  parameter (n = 200)
  real a(201), b(201)
  do i = 2, n
    ` + body + `
  end do
end
`
		r := runner(t, src, Options{Machine: machine.NewPOWER1()})
		if err := r.Run(); err != nil {
			t.Fatal(err)
		}
		return r.Cycles()
	}
	serial := run("a(i) = a(i-1) + b(i)")
	parallel := run("a(i) = b(i) + 1.0")
	if serial <= parallel {
		t.Errorf("recurrence (%d cycles) should be slower than parallel (%d)", serial, parallel)
	}
}

func TestWhileDynamicCondCost(t *testing.T) {
	// Conditional inside a loop charges compare+branch per iteration.
	src := `
program p
  integer i, n, k
  parameter (n = 100, k = 30)
  real t, f
  do i = 1, n
    if (i .le. k) then
      t = t + 1.0
    else
      f = f + 1.0
    end if
  end do
end
`
	r := runner(t, src, Options{Machine: machine.NewPOWER1()})
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if r.Scalar("t") != 30 || r.Scalar("f") != 70 {
		t.Errorf("t=%v f=%v", r.Scalar("t"), r.Scalar("f"))
	}
	if r.Cycles() <= 0 {
		t.Error("no cycles")
	}
}

func TestScoreboardBounded(t *testing.T) {
	src := `
program p
  integer i, n
  parameter (n = 20000)
  real a(20000), b(20000)
  do i = 1, n
    b(i) = a(i) + 1.0
  end do
end
`
	r := runner(t, src, Options{Machine: machine.NewPOWER1()})
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if r.Cycles() < 20000 {
		t.Errorf("cycles = %d, unexpectedly small", r.Cycles())
	}
}
