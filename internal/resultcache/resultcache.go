// Package resultcache is the content-addressed result cache that
// turns predictd into a fleet-scale service: a (program, machine,
// options) triple deterministically yields one answer — the paper's
// whole premise — and since both sides are content-fingerprinted
// (source.FingerprintProgram, machine.Fingerprint), the finished
// answer can be cached and served by identity, skipping parsing,
// analysis, aggregation and search entirely.
//
// The package deliberately caches opaque bytes, not structures: the
// serving layer stores fully encoded response bodies, so a cache hit
// is byte-identical to a recomputation by construction — eviction and
// warmth can change latency, never content. Three pieces:
//
//   - Cache, a byte-budgeted internal/lru.Cache of response bodies.
//   - Snapshot/LoadSnapshot (snapshot.go), a checksummed on-disk image
//     for warm restarts: written on drain, loaded on boot, and
//     rejected wholesale on any corruption so a bad file can only ever
//     cost warmth.
//   - Group (singleflight.go), request coalescing on the cache key: N
//     concurrent identical computations collapse into one.
//
// Key construction (key.go) is centralized here so the soundness
// argument — exactly which request fields may influence a response —
// lives in one audited place.
package resultcache

import "perfpredict/internal/lru"

// Key is the 128-bit content-addressed identity of one cacheable
// result: a fingerprint over the program structure, the machine
// description, and every option that can influence the response
// bytes. Build keys with PredictKey/BatchKey/OptimizeKey.
type Key struct {
	Hi, Lo uint64
}

// Stats is a point-in-time counter snapshot of a Cache.
type Stats struct {
	Hits, Misses int64
	Puts         int64
	// Evictions counts entries dropped to make room; Rejected counts
	// Puts declined because a single value exceeded a shard's budget.
	Evictions, Rejected int64
	// Entries and Bytes describe current occupancy. Bytes includes a
	// fixed per-entry overhead, so the budget accounts for map and
	// list bookkeeping, not just payloads.
	Entries, Bytes int64
}

const (
	nShards = 16
	// entryOverhead approximates per-entry bookkeeping (map bucket,
	// list node, key, slice header) charged against the byte budget.
	entryOverhead = 96
)

// Cache is the in-process result store: an lru.Cache of response
// bodies sharded 16 ways by key bits, with per-shard byte budgets.
// All methods are safe for concurrent use; the striping keeps the
// predict hot path (fingerprint + one mutexed map probe) uncontended
// at serving concurrency. Values are owned by the cache once Put and
// are returned without copying, so callers on both sides treat them
// as immutable.
type Cache struct {
	c lru.Cache[Key, []byte]
}

// New creates a cache bounded to roughly maxBytes of stored values
// (including a fixed per-entry overhead). maxBytes <= 0 selects the
// 64 MiB default.
func New(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		maxBytes = 64 << 20
	}
	c := &Cache{}
	c.c.Init(lru.Config[Key, []byte]{
		Budget: maxBytes,
		Shards: nShards,
		// Lo is FNV-mixed; its low bits are well distributed.
		Bits: func(k Key) uint64 { return k.Lo },
		Cost: func(v []byte) int64 { return int64(len(v)) + entryOverhead },
	})
	return c
}

// Get returns the cached value and promotes the entry to
// most-recently-used.
func (c *Cache) Get(key Key) ([]byte, bool) { return c.c.Get(key) }

// Put stores val under key, evicting least-recently-used entries as
// needed to respect the shard's byte budget. Re-putting an existing
// key replaces its value. A value larger than the whole shard budget
// is rejected (storing it would just evict everything for one entry).
func (c *Cache) Put(key Key, val []byte) { c.c.Put(key, val) }

// Stats reports cumulative counters and current occupancy.
func (c *Cache) Stats() Stats {
	st := c.c.Stats()
	return Stats{
		Hits: st.Hits, Misses: st.Misses, Puts: st.Puts,
		Evictions: st.Evictions, Rejected: st.Rejects,
		Entries: st.Entries, Bytes: st.Cost,
	}
}

// Len returns the number of cached entries.
func (c *Cache) Len() int { return c.c.Len() }
