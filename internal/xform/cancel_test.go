package xform

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"perfpredict/internal/aggregate"
	"perfpredict/internal/kernels"
	"perfpredict/internal/machine"
	"perfpredict/internal/sem"
	"perfpredict/internal/source"
)

func matmulProg(t *testing.T) *source.Program {
	t.Helper()
	k, err := kernels.Get("matmul")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := source.Parse(k.Src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sem.Analyze(prog); err != nil {
		t.Fatal(err)
	}
	return prog
}

// calibrateNodeCost times a small bounded search and returns the mean
// wall-clock cost of one node expansion on this machine, floored at
// 1ms. The cancellation tests size their deadlines and tolerances
// from this measurement instead of hard-coded constants that go stale
// (or flaky) as hardware and the expansion cost drift.
func calibrateNodeCost(t *testing.T, prog *source.Program) time.Duration {
	t.Helper()
	start := time.Now()
	res, err := SearchCtx(context.Background(), prog, SearchOptions{Machine: machine.NewPOWER1(), MaxNodes: 4, MaxDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Explored <= 0 {
		t.Fatalf("calibration search explored %d nodes", res.Explored)
	}
	per := time.Since(start) / time.Duration(res.Explored)
	if per < time.Millisecond {
		per = time.Millisecond
	}
	return per
}

// TestSearchCtxReturnsPromptlyOnDeadline pins the cancellation
// contract on the matmul kernel: a search sized to run for a long
// time must return within a few node-expansions of its context
// expiring, with the best-so-far as a valid partial result.
func TestSearchCtxReturnsPromptlyOnDeadline(t *testing.T) {
	prog := matmulProg(t)
	per := calibrateNodeCost(t, prog)
	// The deadline buys roughly ten expansions — enough to get the
	// search going, orders of magnitude short of MaxNodes — so a
	// prompt return can only come from the cancellation path.
	deadline := 10 * per
	if deadline > 2*time.Second {
		deadline = 2 * time.Second
	}
	opt := SearchOptions{Machine: machine.NewPOWER1(), MaxNodes: 1 << 20, MaxDepth: 6}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	res, err := SearchCtx(ctx, prog, opt)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v (explored %d), want context.DeadlineExceeded", err, res.Explored)
	}
	// ε is many measured expansions (the search observes cancellation
	// at node boundaries) plus slack for loaded CI under -race.
	epsilon := 100 * per
	if epsilon < 2*time.Second {
		epsilon = 2 * time.Second
	}
	if elapsed > deadline+epsilon {
		t.Fatalf("search returned %v after a %v deadline (measured %v/node)", elapsed, deadline, per)
	}
	// The partial result is a usable best-so-far.
	if res.Best == nil {
		t.Fatal("cancelled search returned no program")
	}
	if res.BestCost > res.InitialCost {
		t.Errorf("partial best %v worse than initial %v", res.BestCost, res.InitialCost)
	}
	if res.Explored <= 0 || res.Explored >= opt.MaxNodes {
		t.Errorf("explored %d nodes under a %v deadline", res.Explored, deadline)
	}
}

// TestSearchCtxNoGoroutineLeakWithExplain: cancelled searches and a
// completed one — the latter running the post-search explain
// diagnosis on its winner — leave the goroutine count at its
// pre-search baseline.
func TestSearchCtxNoGoroutineLeakWithExplain(t *testing.T) {
	prog := matmulProg(t)
	per := calibrateNodeCost(t, prog)
	baseline := runtime.NumGoroutine()
	for i := 0; i < 4; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 2*per)
		_, err := SearchCtx(ctx, prog, SearchOptions{Machine: machine.NewPOWER1(), MaxNodes: 1 << 20, MaxDepth: 6})
		cancel()
		if err != nil && !errors.Is(err, context.DeadlineExceeded) {
			t.Fatal(err)
		}
	}
	res, err := SearchCtx(context.Background(), prog,
		SearchOptions{Machine: machine.NewPOWER1(), MaxNodes: 6, MaxDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bottleneck == "" {
		t.Error("completed search reported no bottleneck for its winner")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		now := runtime.NumGoroutine()
		if now <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines: baseline %d, now %d after searches\n%s",
				baseline, now, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestSearchCtxPreCancelled: a context that is already done stops the
// search before the initial pricing.
func TestSearchCtxPreCancelled(t *testing.T) {
	prog := matmulProg(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := SearchCtx(ctx, prog, SearchOptions{Machine: machine.NewPOWER1()})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Best != nil {
		t.Errorf("pre-cancelled search still produced a result: %+v", res)
	}
}

// TestSearchCtxBackgroundMatchesSearch: threading a live context is
// invisible — same best, same trajectory, same counters.
func TestSearchCtxBackgroundMatchesSearch(t *testing.T) {
	prog := matmulProg(t)
	opt := SearchOptions{Machine: machine.NewPOWER1(), MaxNodes: 6, MaxDepth: 2}
	plain, err := SearchCtx(context.Background(), prog, opt)
	if err != nil {
		t.Fatal(err)
	}
	ctxed, err := SearchCtx(context.Background(), prog, opt)
	if err != nil {
		t.Fatal(err)
	}
	if plain.BestCost != ctxed.BestCost || plain.Explored != ctxed.Explored ||
		source.PrintProgram(plain.Best) != source.PrintProgram(ctxed.Best) {
		t.Errorf("SearchCtx(Background) diverged: %+v vs %+v", ctxed, plain)
	}
}

// TestSearchSharedCachesWarmReuse: a second search on warm shared
// caches returns byte-identical results and reports per-search
// counter deltas (not cumulative totals), with the warm nest cache
// actually hit.
func TestSearchSharedCachesWarmReuse(t *testing.T) {
	prog := matmulProg(t)
	caches := aggregate.Caches{Seg: aggregate.NewSegCache(), Nest: aggregate.NewNestCache()}
	opt := SearchOptions{Machine: machine.NewPOWER1(), MaxNodes: 6, MaxDepth: 2, Caches: caches}
	cold, err := SearchCtx(context.Background(), prog, opt)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := SearchCtx(context.Background(), prog, opt)
	if err != nil {
		t.Fatal(err)
	}
	if cold.BestCost != warm.BestCost || cold.Explored != warm.Explored ||
		source.PrintProgram(cold.Best) != source.PrintProgram(warm.Best) {
		t.Fatalf("warm-cache search diverged: %+v vs %+v", warm, cold)
	}
	if warm.NestHits == 0 {
		t.Error("second search on warm shared caches never hit the nest cache")
	}
	if warm.NestMisses > cold.NestMisses {
		t.Errorf("warm search re-priced more nests (%d) than the cold one (%d)", warm.NestMisses, cold.NestMisses)
	}
	// Counter deltas must be per-search: the warm run's misses cannot
	// include the cold run's.
	_, totalMisses := caches.Nest.Stats()
	if warm.NestMisses >= totalMisses && cold.NestMisses > 0 {
		t.Errorf("warm search reported cumulative misses %d (total %d) — deltas broken", warm.NestMisses, totalMisses)
	}
}
