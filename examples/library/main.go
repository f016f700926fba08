// Library: the external-library cost table of §3.5 — routine
// performance expressions are computed once from source, parameterized
// by their formal parameters, and substituted with the actual
// parameters at every call site.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"perfpredict"
)

const daxpySrc = `
subroutine daxpy(n, alpha)
  integer i, n
  real alpha, x(8192), y(8192)
  do i = 1, n
    y(i) = y(i) + alpha * x(i)
  end do
end
`

const dotSrc = `
subroutine dot(n)
  integer i, n
  real s, a(8192), b(8192)
  s = 0.0
  do i = 1, n
    s = s + a(i) * b(i)
  end do
end
`

const caller = `
subroutine solve(m)
  integer it, m
  real a
  a = 0.5
  do it = 1, m
    call daxpy(4096, a)
    call dot(4096)
    call daxpy(2 * m, a)
  end do
end
`

func main() {
	target := perfpredict.POWER1()

	// Build the cost table from routine sources — each entry is a
	// performance expression over the routine's formals.
	lib, err := perfpredict.BuildLibrary(map[string]string{
		"daxpy": daxpySrc,
		"dot":   dotSrc,
	}, target)
	if err != nil {
		log.Fatal(err)
	}
	names := make([]string, 0, len(lib))
	for name := range lib {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		e := lib[name]
		fmt.Printf("library %-6s params %v: C = %s\n", name, e.Params, e.Cost)
	}

	// Predict the caller: each CALL substitutes its actuals — the
	// constant 4096 folds, the symbolic 2·m flows through.
	pred, err := perfpredict.PredictCtx(context.Background(), caller, target,
		perfpredict.PredictOptions{Library: lib})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nC(solve) = %s cycles\n", pred.Cost)

	for _, m := range []float64{10, 100} {
		v, err := pred.EvalAt(map[string]float64{"m": m})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  m=%3.0f: %12.0f cycles predicted\n", m, v)
	}

	// Without the table the same calls cost only linkage — the
	// difference is the library work the expression now accounts for.
	bare, err := perfpredict.Predict(caller, target)
	if err != nil {
		log.Fatal(err)
	}
	v1, _ := pred.EvalAt(map[string]float64{"m": 10})
	v0, _ := bare.EvalAt(map[string]float64{"m": 10})
	fmt.Printf("\nwithout the table at m=10: %.0f cycles (%.0fx underestimate)\n",
		v0, v1/v0)
}
