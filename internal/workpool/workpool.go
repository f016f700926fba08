// Package workpool provides the bounded fan-out primitive behind the
// concurrent prediction pipeline: batch prediction, the transformation
// search's neighbor expansion and any other embarrassingly-indexed
// loop run through one shared implementation instead of ad-hoc
// goroutine spawns.
package workpool

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Run invokes fn(i) for every i in [0, n), using at most workers
// goroutines, and returns once all calls have completed. workers <= 0
// means runtime.GOMAXPROCS(0); a single worker (or n == 1) degenerates
// to a plain loop on the calling goroutine, so serial semantics are
// the zero-cost special case.
//
// Indices are handed out through an atomic counter, so load balances
// even when per-index costs are skewed. fn is responsible for
// synchronizing any shared state beyond index-disjoint writes.
func Run(n, workers int, fn func(i int)) {
	_ = RunCtx(context.Background(), n, workers, fn)
}

// RunCtx is Run with cooperative cancellation: workers check ctx
// before claiming each index and stop claiming once it is done, then
// RunCtx returns ctx.Err(). Calls already in flight run to completion
// — fn is never interrupted mid-index — so on a non-nil return some
// unpredictable subset of indices was processed and the caller decides
// what the partial results mean. A nil return guarantees every index
// ran.
func RunCtx(ctx context.Context, n, workers int, fn func(i int)) error {
	return RunWorkersCtx(ctx, n, workers, func(_, i int) { fn(i) })
}

// RunWorkersCtx is RunCtx telling fn which worker runs index i: w is in
// [0, Workers(workers)), and one worker runs one index at a time, so
// fn may keep per-worker state indexed by w without locking.
func RunWorkersCtx(ctx context.Context, n, workers int, fn func(w, i int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers = min(Workers(workers), n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(0, i)
		}
		return nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// Workers resolves a worker bound: workers <= 0 means
// runtime.GOMAXPROCS(0).
func Workers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}
