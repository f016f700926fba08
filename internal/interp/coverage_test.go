package interp

import (
	"math"
	"testing"

	"perfpredict/internal/machine"
)

func TestSetArraySeedsInputs(t *testing.T) {
	src := `
program p
  integer i, n
  parameter (n = 4)
  real a(4), s
  s = 0.0
  do i = 1, n
    s = s + a(i)
  end do
end
`
	r := runner(t, src, Options{})
	r.SetArray("a", []float64{1, 2, 3, 4})
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if r.Scalar("s") != 10 {
		t.Errorf("s = %v", r.Scalar("s"))
	}
}

func TestAllConditionForms(t *testing.T) {
	src := `
program p
  integer i, hits
  real x
  x = 5.0
  do i = 1, 10
    if (i .lt. 3) hits = hits + 1
    if (i .le. 3) hits = hits + 1
    if (i .gt. 8) hits = hits + 1
    if (i .ge. 8) hits = hits + 1
    if (i .eq. 5) hits = hits + 1
    if (i .ne. 5) hits = hits + 1
    if (i .gt. 2 .and. i .lt. 5) hits = hits + 1
    if (i .lt. 2 .or. i .gt. 9) hits = hits + 1
    if (.not. (i .eq. 1)) hits = hits + 1
    if (x .gt. real(i)) hits = hits + 1
  end do
end
`
	r := runner(t, src, Options{})
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	// lt3:2 le3:3 gt8:2 ge8:3 eq5:1 ne5:9 and:2 or:2 not:9 x>i:4
	want := 2.0 + 3 + 2 + 3 + 1 + 9 + 2 + 2 + 9 + 4
	if got := r.Scalar("hits"); got != want {
		t.Errorf("hits = %v, want %v", got, want)
	}
}

func TestAllIntrinsics(t *testing.T) {
	src := `
program p
  real a, b, c, d, e, f, g, h, x
  integer m
  x = 4.0
  a = sqrt(x)
  b = abs(-3.0)
  c = min(2.0, 5.0)
  d = max(2.0, 5.0)
  m = mod(7, 3)
  e = exp(0.0)
  f = log(1.0)
  g = sin(0.0)
  h = cos(0.0)
end
`
	r := runner(t, src, Options{})
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	checks := map[string]float64{
		"a": 2, "b": 3, "c": 2, "d": 5, "m": 1,
		"e": 1, "f": 0, "g": 0, "h": 1,
	}
	for name, want := range checks {
		if got := r.Scalar(name); math.Abs(got-want) > 1e-12 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func TestIntDivAndModErrors(t *testing.T) {
	r := runner(t, `
program p
  integer i
  real x
  i = 0
  x = mod(3.0, real(i))
end
`, Options{})
	if err := r.Run(); err == nil {
		t.Error("mod by zero accepted")
	}
	r2 := runner(t, `
program p
  integer i
  real x
  i = 0
  x = 1.0 / real(i)
end
`, Options{})
	if err := r2.Run(); err == nil {
		t.Error("division by zero accepted")
	}
}

func TestPowerEval(t *testing.T) {
	r := runner(t, `
program p
  real x, y
  x = 2.0
  y = x**10 + 2.0**(-1)
end
`, Options{})
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if got := r.Scalar("y"); got != 1024.5 {
		t.Errorf("y = %v", got)
	}
}

func TestNegativeStepLoop(t *testing.T) {
	r := runner(t, `
program p
  integer i, count
  real a(10)
  do i = 10, 1, -2
    a(i) = real(i)
    count = count + 1
  end do
end
`, Options{})
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if r.Scalar("count") != 5 {
		t.Errorf("count = %v", r.Scalar("count"))
	}
	a := r.Array("a")
	if a[9] != 10 || a[1] != 2 || a[0] != 0 {
		t.Errorf("a = %v", a)
	}
}

func TestZeroStepRejected(t *testing.T) {
	r := runner(t, `
program p
  integer i, z
  real x
  z = 0
  do i = 1, 10, z
    x = x + 1.0
  end do
end
`, Options{})
	if err := r.Run(); err == nil {
		t.Error("zero step accepted")
	}
}

// TestNegativeIntegerPower: an integer raised to a negative integer
// evaluates as sem folds it, 1/l**|r| truncated toward zero, and
// 0**(-n) does not evaluate. So a loop bound of 8 * 2**(-1) runs no
// trip, and simulates exactly the cycles of a bound of 0.
func TestNegativeIntegerPower(t *testing.T) {
	r := runner(t, `
program p
  integer i, j, k, m
  real x
  i = 2**(-1)
  j = (-1)**(-3)
  k = 1**(-4)
  m = (-2)**(-1)
  x = 2**(-1) + 2.0**(-1)
end
`, Options{})
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{"i": 0, "j": -1, "k": 1, "m": 0, "x": 0.5} {
		if got := r.Scalar(name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	zero := runner(t, "program p\n  integer i, z\n  z = 0\n  i = z**(-1)\nend\n", Options{})
	if err := zero.Run(); err == nil {
		t.Error("0**(-1) evaluated")
	}
	cycles := func(bound string) int64 {
		r := runner(t, `
program p
  integer i
  real s, y(8)
  s = 0.0
  do i = 1, `+bound+`
    s = s + y(1)
  end do
end
`, Options{Machine: machine.NewPOWER1()})
		if err := r.Run(); err != nil {
			t.Fatal(err)
		}
		return r.Cycles()
	}
	if got, want := cycles("8 * 2**(-1)"), cycles("0"); got != want {
		t.Errorf("bound 8 * 2**(-1) simulates %d cycles, bound 0 %d", got, want)
	}
}
