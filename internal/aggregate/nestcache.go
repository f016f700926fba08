package aggregate

import (
	"sync/atomic"

	"perfpredict/internal/lru"
	"perfpredict/internal/source"
	"perfpredict/internal/tetris"
)

// NestCache memoizes whole loop-nest costs across the program variants
// of a transformation search — the layer above SegCache that makes
// re-pricing incremental (§3.3.1: a transformation's affected region is
// one nest; everything else is looked up). Entries are keyed by a
// structural fingerprint of the nest combined with its pricing context:
// the machine, the library table, the enclosing loop variables
// the nest references, and the declarations/constants visible to it
// (source.FingerprintEnvFor). A nest that a move did not touch —
// including nests of *other* statements shifted by an insertion, and
// inner nests below a transformed loop — therefore hits even though
// its printed position changed.
//
// Entries are relocatable: besides the nest's cost polynomials they
// record the one-time costs and unknown-variable registrations the
// pricing performed, so a hit replays them against the current
// estimator (renaming fresh unknowns to the current counter) and the
// spliced result is byte-identical to a full re-pricing.
//
// A NestCache is safe for concurrent use: every table is an lru.Cache
// bounded to nestBudget entries, and all counters are atomic.
// Concurrent misses on one key may both price the nest; the entries
// they store splice to identical results, so predictions are
// deterministic regardless of interleaving and of eviction. Keys are
// 128-bit structural hashes; collisions are treated as impossible (the
// same stance the SegCache takes).
type NestCache struct {
	// disabled makes every lookup a counted miss and every store a
	// no-op: the estimator then performs exactly the work it would
	// without a nest cache while still reporting re-pricing and tetris
	// counters — the baseline side of a before/after measurement.
	disabled bool

	entries lru.Cache[source.Fingerprint, *nestEntry]
	// direct counts re-pricings whose lookup was skipped (dirty path
	// or counting mode); Stats adds them to the table's misses.
	direct atomic.Int64
	tetris atomic.Int64

	// The aux tables memoize the sub-nest pieces that dominate the
	// cost of re-pricing a nest that *did* change: the constant
	// loop-control overhead, leading-run cost-block shapes, and
	// loop-bound evaluation costs. These fire even when the enclosing
	// nest misses.
	ctl    lru.Cache[source.Fingerprint, float64]
	shapes lru.Cache[source.Fingerprint, shapeEntry]
	bounds lru.Cache[source.Fingerprint, boundsEntry]
}

// nestBudget bounds each NestCache table's entries; one search fills
// a few hundred.
const nestBudget = 1 << 16

// shapeEntry caches one runShape result (ok=false marks bodies with
// no usable leading straight-line run).
type shapeEntry struct {
	shape tetris.CostBlock
	ok    bool
}

// boundsEntry caches the evaluation cost of one loop-bound expression:
// the iterative part and the hoisted (preheader) part, with presence
// flags so the replay performs exactly the operations the original
// pricing did.
type boundsEntry struct {
	iter    float64
	pre     float64
	hasIter bool
	hasPre  bool
}

// NewNestCache creates an empty nest-level cost cache, ready for
// concurrent use.
func NewNestCache() *NestCache { return NewNestCacheSized(nestBudget) }

// NewNestCacheSized creates a nest cache whose tables are each bounded
// to budget entries. NewNestCache is the production size; tests shrink
// the budget to force eviction.
func NewNestCacheSized(budget int) *NestCache {
	c := &NestCache{}
	initFPCache(&c.entries, int64(budget))
	initFPCache(&c.ctl, int64(budget))
	initFPCache(&c.shapes, int64(budget))
	initFPCache(&c.bounds, int64(budget))
	return c
}

// NewNestCacheCounting creates a cache in counting mode: it never hits
// and never stores, but still counts every nest re-pricing and tetris
// invocation. Estimators using it do exactly the work of cache-less
// aggregation — the baseline for measuring what an active cache saves.
func NewNestCacheCounting() *NestCache { return &NestCache{disabled: true} }

// Stats reports nest-level hits and misses so far; misses count nests
// actually re-priced (including dirty nests whose lookup was skipped).
// Safe to call concurrently with ongoing estimations.
func (c *NestCache) Stats() (hits, misses int) {
	st := c.entries.Stats()
	return int(st.Hits), int(st.Misses + c.direct.Load())
}

// TetrisCalls reports how many tetris estimator invocations (Estimate,
// SteadyState, SteadyStateChained) estimators attached to this cache
// have performed — the work metric the nest cache exists to reduce.
func (c *NestCache) TetrisCalls() int { return int(c.tetris.Load()) }

// Len reports the number of cached nest entries.
func (c *NestCache) Len() int { return c.entries.Len() }

// Evictions reports how many entries, over all four tables, have been
// dropped to respect the budget.
func (c *NestCache) Evictions() int {
	return int(c.entries.Stats().Evictions + c.ctl.Stats().Evictions +
		c.shapes.Stats().Evictions + c.bounds.Stats().Evictions)
}
