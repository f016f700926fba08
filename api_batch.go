package perfpredict

import (
	"context"

	"perfpredict/internal/aggregate"
	"perfpredict/internal/workpool"
)

// SegmentCache memoizes straight-line segment costs across
// predictions. It is safe for concurrent use: batch workers (and any
// estimators the caller runs by hand) may share one instance, turning
// repeated pricing of common code shapes into lock-striped lookups.
// See NewSegmentCache.
type SegmentCache = aggregate.SegCache

// NewSegmentCache creates an empty shared segment cache.
func NewSegmentCache() *SegmentCache { return aggregate.NewSegCache() }

// BatchOptions tune PredictBatchCtx.
type BatchOptions struct {
	// Workers bounds the worker pool; <= 0 uses runtime.GOMAXPROCS(0).
	Workers int
	// Cache is the segment cache the workers share; nil creates a
	// fresh cache private to this batch. Passing the same cache to
	// successive batches (or to OptimizeCtx searches) carries priced
	// segments across calls — the incremental-update mechanism of
	// §3.3.1 applied at fleet scale.
	Cache *SegmentCache
}

// PredictBatchCtx prices many programs concurrently on one target. It
// returns one prediction and one error slot per source, index-aligned
// with srcs; failed programs leave a nil prediction and a non-nil
// error without affecting the others.
//
// Every worker runs a private estimator, so results are byte-identical
// to calling Predict on each source serially — the shared cache only
// changes how often segment costs are recomputed, never their values.
//
// Once ctx is done, workers stop picking up further programs (the one
// each worker is pricing finishes), and every program that never ran
// gets a nil prediction with ctx.Err() in its error slot. Programs
// that did complete keep their results, so partial batches remain
// usable and are still byte-identical to serial pricing of the same
// indices.
func PredictBatchCtx(ctx context.Context, srcs []string, target *Target, opt BatchOptions) ([]*Prediction, []error) {
	preds := make([]*Prediction, len(srcs))
	errs := make([]error, len(srcs))
	if len(srcs) == 0 {
		return preds, errs
	}
	cache := opt.Cache
	if cache == nil {
		cache = NewSegmentCache()
	}
	if err := workpool.RunCtx(ctx, len(srcs), opt.Workers, func(i int) {
		preds[i], errs[i] = predictWithCache(srcs[i], target, aggregate.DefaultOptions(), cache)
	}); err != nil {
		// predictWithCache always fills exactly one slot, so a
		// both-nil pair marks an index the cancelled pool never ran.
		for i := range srcs {
			if preds[i] == nil && errs[i] == nil {
				errs[i] = err
			}
		}
	}
	return preds, errs
}

// predictWithCache is the cache-aware core of every prediction entry
// point: parse, analyze, aggregate.
func predictWithCache(src string, target *Target, opt aggregate.Options, cache *SegmentCache) (*Prediction, error) {
	prog, tbl, err := analyze(src)
	if err != nil {
		return nil, err
	}
	est := aggregate.NewWithCache(tbl, target, opt, cache)
	res, err := est.Program(prog)
	if err != nil {
		return nil, err
	}
	p := &Prediction{
		Cost:     res.Cost,
		OneTime:  res.OneTime,
		Memory:   res.Memory,
		prog:     prog,
		unknowns: res.Unknowns,
	}
	for _, u := range res.Unknowns {
		p.Unknowns = append(p.Unknowns, Unknown{Name: string(u.Var), Kind: u.Kind, Source: u.Desc})
	}
	return p, nil
}
