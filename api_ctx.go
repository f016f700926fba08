package perfpredict

import (
	"context"

	"perfpredict/internal/aggregate"
	"perfpredict/internal/source"
	"perfpredict/internal/symexpr"
	"perfpredict/internal/xform"
)

// PredictOptions tune PredictCtx. The zero value reproduces Predict.
type PredictOptions struct {
	// Library resolves CALL statements through an external-routine
	// cost table (§3.5); nil prices calls as linkage only.
	Library Library
	// Cache is a warm shared segment cache; nil prices without one.
	// Costs never depend on cache state, so results are
	// byte-identical either way.
	Cache *SegmentCache
}

// PredictCtx is Predict under a context with service-grade knobs: the
// single-program form of PredictBatchCtx. ctx is checked before the
// (uninterruptible, milliseconds-scale) parse/analyze/aggregate
// pipeline runs.
func PredictCtx(ctx context.Context, src string, target *Target, opt PredictOptions) (*Prediction, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return predictWithCache(src, target, aggregate.Options{Library: opt.Library}, opt.Cache)
}

// NestCache memoizes whole loop-nest pricings across transformation
// searches (the layer above SegmentCache). Safe for concurrent use;
// entries are keyed by structural fingerprint × machine content
// fingerprint, so one instance may serve every machine. See
// NewNestCache.
type NestCache = aggregate.NestCache

// NewNestCache creates an empty shared nest-level cost cache.
func NewNestCache() *NestCache { return aggregate.NewNestCache() }

// OptimizeOptions tune OptimizeCtx beyond the required arguments.
// The zero value searches with the xform defaults on GOMAXPROCS
// workers and per-search caches.
type OptimizeOptions struct {
	// Workers bounds the search's neighbor-expansion concurrency;
	// <= 0 uses runtime.GOMAXPROCS(0).
	Workers int
	// SegCache and NestCache are warm shared caches the search prices
	// through; nil members get fresh per-search instances, which the
	// search's candidates share. Costs never depend on cache state —
	// sharing only changes how much pricing work is recomputed — so
	// results are byte-identical either way.
	SegCache  *SegmentCache
	NestCache *NestCache
	// MaxNodes and MaxDepth bound the search (0 keeps the xform
	// defaults of 40 states / depth 3).
	MaxNodes int
	MaxDepth int
	// Progress, when non-nil, is called after every search-node
	// expansion with the nodes expanded so far and the incumbent
	// cost. It runs on the search goroutine; keep it fast.
	Progress func(explored int, best float64)
}

// OptimizeCtx searches transformation sequences (unroll, interchange,
// tile, fuse) for the cheapest predicted variant (§3.2). Variants are
// ranked by their cost at nominal; unknowns it leaves out take the
// filled evaluation point (probabilities 0.5, other unknowns 100), so
// PredictedBefore equals Predict's EvalAt with those values filled in.
//
// Cancellation is checked at every search-node expansion, so a
// dropped caller stops the burn within one expansion. On cancellation
// the best fully priced variant found so far is returned alongside
// ctx.Err(); OptimizeResult is the zero value only when ctx expired
// before the initial pricing finished.
func OptimizeCtx(ctx context.Context, src string, target *Target, nominal map[string]float64, opt OptimizeOptions) (OptimizeResult, error) {
	prog, _, err := analyze(src)
	if err != nil {
		return OptimizeResult{}, err
	}
	nom := map[symexpr.Var]float64{}
	for k, v := range nominal {
		nom[symexpr.Var(k)] = v
	}
	res, serr := xform.SearchCtx(ctx, prog, xform.SearchOptions{
		Machine:  target,
		Nominal:  nom,
		Workers:  opt.Workers,
		MaxNodes: opt.MaxNodes,
		MaxDepth: opt.MaxDepth,
		Caches:   aggregate.Caches{Seg: opt.SegCache, Nest: opt.NestCache},
		Progress: opt.Progress,
	})
	if res.Best == nil {
		return OptimizeResult{}, serr
	}
	out := OptimizeResult{
		Source:          source.PrintProgram(res.Best),
		PredictedBefore: res.InitialCost,
		PredictedAfter:  res.BestCost,
		MemoryBefore:    res.InitialMemory,
		MemoryAfter:     res.BestMemory,
		Explored:        res.Explored,
		SegCacheHits:    res.CacheHits,
		SegCacheMisses:  res.CacheMisses,
		NestCacheHits:   res.NestHits,
		NestsRepriced:   res.NestMisses,
		Bottleneck:      res.Bottleneck,
		BottleneckUtil:  res.BottleneckUtil,
	}
	for _, mv := range res.Sequence {
		out.Transformations = append(out.Transformations, mv.String())
	}
	return out, serr
}
