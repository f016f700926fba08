package xform

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"perfpredict/internal/aggregate"
	"perfpredict/internal/kernels"
	"perfpredict/internal/machine"
	"perfpredict/internal/sem"
	"perfpredict/internal/source"
)

func priceSignature(r aggregate.Result) string {
	return fmt.Sprintf("cost=%s|onetime=%s|unknowns=%+v", r.Cost, r.OneTime, r.Unknowns)
}

// TestIncrementalMatchesFullPerMoveKind applies every legal move of
// every embedded kernel and requires that pricing the variant through a
// warm nest cache (with the move's path as the dirty hint) is
// byte-identical to pricing it from scratch. All five move kinds must
// occur across the kernel set.
func TestIncrementalMatchesFullPerMoveKind(t *testing.T) {
	m := machine.NewPOWER1()
	aggOpt := aggregate.DefaultOptions()
	opt := SearchOptions{Machine: m}
	opt.defaults()
	covered := map[string]bool{}
	type subject struct {
		name string
		prog *source.Program
	}
	var subjects []subject
	for _, k := range kernels.All() {
		p, _, err := k.Parse()
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		subjects = append(subjects, subject{k.Name, p})
	}
	// None of the embedded kernels has a legally fusible sibling pair;
	// add one so the fuse move is exercised too.
	fusible, err := source.Parse(`
program fusepair
  integer i, n
  real a(100), b(100), c(100)
  do i = 1, n
    a(i) = b(i) + 1.0
  end do
  do i = 1, n
    c(i) = a(i) * 2.0
  end do
end
`)
	if err != nil {
		t.Fatal(err)
	}
	subjects = append(subjects, subject{"fusepair", fusible})
	for _, sub := range subjects {
		p := sub.prog
		caches := aggregate.Caches{Seg: aggregate.NewSegCache(), Nest: aggregate.NewNestCache()}
		tbl, err := sem.Analyze(p)
		if err != nil {
			t.Fatalf("%s: %v", sub.name, err)
		}
		// Warm the cache with the base program, as Search does.
		if _, err := aggregate.PriceIncremental(p, nil, caches, tbl, m, aggOpt); err != nil {
			t.Fatalf("%s: base pricing: %v", sub.name, err)
		}
		for _, mv := range Moves(p, opt) {
			v, err := Apply(p, mv)
			if err != nil {
				continue // illegal instance
			}
			covered[mv.Kind] = true
			vtbl, err := sem.Analyze(v)
			if err != nil {
				t.Fatalf("%s %s: analyze variant: %v", sub.name, mv, err)
			}
			full, err := aggregate.New(vtbl, m, aggOpt).Program(v)
			if err != nil {
				t.Fatalf("%s %s: full pricing: %v", sub.name, mv, err)
			}
			inc, err := aggregate.PriceIncremental(v, [][]int{[]int(mv.Path)}, caches, vtbl, m, aggOpt)
			if err != nil {
				t.Fatalf("%s %s: incremental pricing: %v", sub.name, mv, err)
			}
			if got, want := priceSignature(inc), priceSignature(full); got != want {
				t.Errorf("%s %s: incremental diverged:\n got %s\nwant %s", sub.name, mv, got, want)
			}
		}
	}
	for _, kind := range []string{"unroll", "interchange", "tile", "fuse", "distribute"} {
		if !covered[kind] {
			t.Errorf("move kind %q never exercised by the kernel set", kind)
		}
	}
}

// TestSearchNestCacheEquivalence runs the same search with the nest
// cache on and off and with serial and parallel expansion; all four
// combinations must return byte-identical results, and the cached runs
// must actually hit. A fifth run prices through two-entry segment and
// nest caches, far below one search's working set: both must evict,
// and the result must not change.
func TestSearchNestCacheEquivalence(t *testing.T) {
	for _, kn := range []string{"f2", "f6", "matmul"} {
		k, err := kernels.Get(kn)
		if err != nil {
			t.Fatal(err)
		}
		p, _, err := k.Parse()
		if err != nil {
			t.Fatalf("%s: %v", kn, err)
		}
		mk := func(disable bool, workers int) SearchOptions {
			return SearchOptions{
				Machine:          machine.NewPOWER1(),
				MaxNodes:         10,
				MaxDepth:         2,
				DisableNestCache: disable,
				Workers:          workers,
			}
		}
		ref, err := SearchCtx(context.Background(), p, mk(true, 1))
		if err != nil {
			t.Fatalf("%s: reference search: %v", kn, err)
		}
		refSrc := source.PrintProgram(ref.Best)
		for _, disable := range []bool{false, true} {
			for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
				res, err := SearchCtx(context.Background(), p, mk(disable, workers))
				if err != nil {
					t.Fatalf("%s disable=%v workers=%d: %v", kn, disable, workers, err)
				}
				if res.BestCost != ref.BestCost {
					t.Errorf("%s disable=%v workers=%d: BestCost %v, want %v", kn, disable, workers, res.BestCost, ref.BestCost)
				}
				if got, want := fmt.Sprint(res.Sequence), fmt.Sprint(ref.Sequence); got != want {
					t.Errorf("%s disable=%v workers=%d: Sequence %s, want %s", kn, disable, workers, got, want)
				}
				if got := source.PrintProgram(res.Best); got != refSrc {
					t.Errorf("%s disable=%v workers=%d: Best program differs:\n%s\nwant:\n%s", kn, disable, workers, got, refSrc)
				}
				if res.InitialCost != ref.InitialCost {
					t.Errorf("%s disable=%v workers=%d: InitialCost %v, want %v", kn, disable, workers, res.InitialCost, ref.InitialCost)
				}
				if disable && res.NestHits != 0 {
					t.Errorf("%s workers=%d: counting-mode cache reported %d hits", kn, workers, res.NestHits)
				}
				if !disable && res.NestHits == 0 {
					t.Errorf("%s workers=%d: nest cache never hit", kn, workers)
				}
				if !disable && res.NestMisses >= ref.NestMisses {
					t.Errorf("%s workers=%d: cache saved nothing (%d re-pricings, baseline %d)",
						kn, workers, res.NestMisses, ref.NestMisses)
				}
			}
		}
		tiny := mk(false, 1)
		tiny.Caches = aggregate.Caches{Seg: aggregate.NewSegCacheSized(2), Nest: aggregate.NewNestCacheSized(2)}
		res, err := SearchCtx(context.Background(), p, tiny)
		if err != nil {
			t.Fatalf("%s tiny caches: %v", kn, err)
		}
		if res.BestCost != ref.BestCost || fmt.Sprint(res.Sequence) != fmt.Sprint(ref.Sequence) ||
			source.PrintProgram(res.Best) != refSrc {
			t.Errorf("%s tiny caches: best %v via %s, want %v via %s",
				kn, res.BestCost, res.Sequence, ref.BestCost, ref.Sequence)
		}
		if s, n := tiny.Caches.Seg.Evictions(), tiny.Caches.Nest.Evictions(); s == 0 || n == 0 {
			t.Errorf("%s: %d segment and %d nest evictions; the budgets do not constrain the search", kn, s, n)
		}
	}
}
