// Custom machine: retarget the predictor without writing Go — the
// paper's §2.2 portability claim, realized as data. power2f.json
// describes POWER2F, a hypothetical POWER variant with a second
// floating-point pipe and a wider dispatch, purely as a machine spec
// (unit inventory, feature flags, and the atomic-operation cost
// table). This program loads it, validates it, and compares its
// predictions against the builtin POWER1 on an unrolled matrix-multiply kernel.
//
// Run from this directory:
//
//	go run . [path/to/spec.json]
package main

import (
	"fmt"
	"log"
	"os"

	"perfpredict"
	"perfpredict/internal/machine"
)

// The kernel is the 4x4-unrolled matrix multiply (16 independent FMAs
// in the innermost block) -- dense enough floating-point work that a
// second FPU pipe can actually show up in the prediction.
const matmul = `
program matmul44
  integer i, j, k, n
  parameter (n = 32)
  real a(32,32), b(32,32), c(32,32)
  do i = 1, n, 4
    do j = 1, n, 4
      do k = 1, n
        c(i,j) = c(i,j) + a(i,k) * b(k,j)
        c(i+1,j) = c(i+1,j) + a(i+1,k) * b(k,j)
        c(i+2,j) = c(i+2,j) + a(i+2,k) * b(k,j)
        c(i+3,j) = c(i+3,j) + a(i+3,k) * b(k,j)
        c(i,j+1) = c(i,j+1) + a(i,k) * b(k,j+1)
        c(i+1,j+1) = c(i+1,j+1) + a(i+1,k) * b(k,j+1)
        c(i+2,j+1) = c(i+2,j+1) + a(i+2,k) * b(k,j+1)
        c(i+3,j+1) = c(i+3,j+1) + a(i+3,k) * b(k,j+1)
        c(i,j+2) = c(i,j+2) + a(i,k) * b(k,j+2)
        c(i+1,j+2) = c(i+1,j+2) + a(i+1,k) * b(k,j+2)
        c(i+2,j+2) = c(i+2,j+2) + a(i+2,k) * b(k,j+2)
        c(i+3,j+2) = c(i+3,j+2) + a(i+3,k) * b(k,j+2)
        c(i,j+3) = c(i,j+3) + a(i,k) * b(k,j+3)
        c(i+1,j+3) = c(i+1,j+3) + a(i+1,k) * b(k,j+3)
        c(i+2,j+3) = c(i+2,j+3) + a(i+2,k) * b(k,j+3)
        c(i+3,j+3) = c(i+3,j+3) + a(i+3,k) * b(k,j+3)
      end do
    end do
  end do
end
`

func main() {
	specPath := "power2f.json"
	if len(os.Args) > 1 {
		specPath = os.Args[1]
	}

	// LoadTarget resolves registered names first, then spec files; a
	// path loads, validates, and builds the described machine.
	custom, err := perfpredict.LoadTarget(specPath)
	if err != nil {
		log.Fatal(err)
	}
	power1, err := perfpredict.LoadTarget("POWER1")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("registered targets: %v\n", perfpredict.TargetNames())
	fmt.Printf("custom target:      %s (fingerprint %s)\n\n", custom.Name, custom.Fingerprint())

	for _, target := range []*perfpredict.Target{power1, custom} {
		pred, err := perfpredict.Predict(matmul, target)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := perfpredict.AnalyzeInnermostBlock(matmul, target)
		if err != nil {
			log.Fatal(err)
		}
		cycles, err := pred.EvalAt(nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s C = %s = %.0f cycles\n", target.Name+":", pred.Cost, cycles)
		fmt.Printf("             innermost block: %d cycles predicted, critical unit %s (%.0f%% busy)\n",
			rep.Predicted, rep.CriticalUnit, 100*rep.Utilization)
	}

	// The second FPU pays off exactly where the FPU was the bottleneck.
	p1, _ := perfpredict.Predict(matmul, power1)
	p2, _ := perfpredict.Predict(matmul, custom)
	v1, _ := p1.EvalAt(nil)
	v2, _ := p2.EvalAt(nil)
	fmt.Printf("\nPOWER2F speedup over POWER1 on matmul: %.2fx\n", v1/v2)

	// Memory-hierarchy what-if: power1mem.json is the same POWER1 cost
	// table with the documented cache hierarchy attached (64 KiB, 128 B
	// lines, 15-cycle fill, 128-entry TLB). Predictions then carry a
	// separate memory component — and hierarchy edits move only it.
	// A built target is sealed, so the variant is derived from its
	// spec and built anew.
	memTarget, err := perfpredict.LoadTarget("power1mem.json")
	if err != nil {
		log.Fatal(err)
	}
	halvedSpec := machine.SpecOf(memTarget)
	halvedSpec.Memory.Levels[0].LineBytes /= 2
	halved, err := halvedSpec.Machine()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nhierarchy what-if on matmul (in-core + memory cycles):")
	for _, row := range []struct {
		label  string
		target *perfpredict.Target
	}{
		{"128B lines", memTarget},
		{" 64B lines", halved},
	} {
		pred, err := perfpredict.Predict(matmul, row.target)
		if err != nil {
			log.Fatal(err)
		}
		total, _ := pred.EvalAt(nil)
		mem, _ := pred.EvalMemoryAt(nil)
		fmt.Printf("  %s: %6.0f in-core + %5.0f memory = %6.0f cycles\n",
			row.label, total-mem, mem, total)
	}
	fmt.Println("halving the line size doubles the line-fill term and leaves the in-core cycles untouched")
}
