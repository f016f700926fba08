// Unrolling: use the predictor to choose a loop-unrolling factor —
// the §2.2.2 use case ("Our model provides two ways for estimating the
// cost saving of unrolling a loop") — and let the best-first
// transformation search (§3.2) find a sequence automatically.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"perfpredict"
	"perfpredict/internal/kernels"
	"perfpredict/internal/source"
	"perfpredict/internal/xform"
)

func main() {
	target := perfpredict.POWER1()
	k, err := kernels.Get("jacobi")
	if err != nil {
		log.Fatal(err)
	}
	prog, _, err := k.Parse()
	if err != nil {
		log.Fatal(err)
	}

	// Locate the innermost loop.
	var path xform.Path
	for _, site := range xform.FindLoops(prog) {
		if site.Innermost {
			path = site.Path
		}
	}

	fmt.Println("unroll-factor selection for the Jacobi relaxation kernel:")
	fmt.Printf("%-8s %-12s %-12s\n", "factor", "predicted", "simulated")
	bestF, bestPred := 1, 0.0
	for _, f := range []int{1, 2, 4, 8} {
		variant := prog
		if f > 1 {
			variant, err = xform.Unroll(prog, path, f)
			if err != nil {
				log.Fatal(err)
			}
		}
		src := source.PrintProgram(variant)
		pred, err := perfpredict.Predict(src, target)
		if err != nil {
			log.Fatal(err)
		}
		pv, err := pred.EvalAt(nil)
		if err != nil {
			log.Fatal(err)
		}
		sim, err := perfpredict.Simulate(src, target, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("u%-7d %-12.0f %-12d\n", f, pv, sim)
		if bestF == 1 && f == 1 || pv < bestPred {
			bestF, bestPred = f, pv
		}
	}
	fmt.Printf("\npredictor's choice: unroll by %d\n", bestF)

	// Fully automatic: best-first search over unroll/interchange/tile.
	res, err := perfpredict.OptimizeCtx(context.Background(), k.Src, target, nil, perfpredict.OptimizeOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nautomatic search: %.0f -> %.0f predicted cycles (%d states)\n",
		res.PredictedBefore, res.PredictedAfter, res.Explored)
	fmt.Printf("sequence: %s\n", strings.Join(res.Transformations, ", "))
	before, err := perfpredict.Simulate(k.Src, target, nil)
	if err != nil {
		log.Fatal(err)
	}
	after, err := perfpredict.Simulate(res.Source, target, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("validated by simulation: %d -> %d cycles (%.2fx)\n",
		before, after, float64(before)/float64(after))
}
