package interp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"testing"
	"time"

	"perfpredict/internal/machine"
)

// linearChild marks the child process of TestSimulateLinear.
const linearChild = "INTERP_LINEAR_CHILD"

// nestProgram is a two-deep nest whose outer loop runs n times.
func nestProgram(n int) string {
	return fmt.Sprintf(`program lin
  integer i, j
  real s, a(8), b(8)
  do i = 1, %d
    do j = 1, 8
      s = s + a(j) * b(j)
    end do
  end do
end
`, n)
}

// TestSimulateLinear: a timed run costs time linear in the length of
// its trace. The same nest at 8× the trip count takes at most 12× the
// time, the best of three runs at each size. The register renaming
// numbers each instance afresh, so a step that costs O(registers
// renamed so far) per scheduling window makes the run quadratic: about
// 50× for 8× the trips, 8 s at the larger size, where a linear run
// reads 8 to 10.5×. The measurement runs in a child process under a
// timeout, so such a regression fails here instead of hanging the
// suite.
func TestSimulateLinear(t *testing.T) {
	if os.Getenv(linearChild) != "" {
		simulateLinear(t)
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestSimulateLinear$", "-test.v")
	cmd.Env = append(os.Environ(), linearChild+"=1")
	out, err := cmd.CombinedOutput()
	t.Logf("child:\n%s", out)
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		t.Fatal("the child did not finish within 60s")
	}
	if err != nil {
		t.Fatalf("child: %v", err)
	}
}

func simulateLinear(t *testing.T) {
	run := func(n int) time.Duration {
		r := runner(t, nestProgram(n), Options{Machine: machine.NewPOWER1()})
		runtime.GC()
		start := time.Now()
		if err := r.Run(); err != nil {
			t.Fatal(err)
		}
		if r.Cycles() <= 0 {
			t.Fatal("no cycles")
		}
		return time.Since(start)
	}
	small, large := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for range 3 {
		small = min(small, run(1000))
		large = min(large, run(8000))
	}
	ratio := float64(large) / float64(small)
	t.Logf("1000 trips in %v, 8000 in %v (ratio %.1f)", small, large, ratio)
	if ratio > 12 {
		t.Errorf("8× the trips took %.1f× the time, want ≤ 12 (linear)", ratio)
	}
}
