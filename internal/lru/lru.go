// Package lru is the one bounded cache behind every memo layer of the
// predictor: a mutex-striped, least-recently-used map with a cost
// budget. The segment and nest cost caches (internal/aggregate), the
// result cache (internal/resultcache) and predictd's request front end
// (internal/serve) are thin types over it, so they share one eviction
// policy, one set of counters and one concurrency argument.
//
// Each shard is an independent LRU list with an equal slice of the
// budget; the key's low bits pick the shard. A value whose cost
// exceeds a whole shard's slice is rejected rather than flushing the
// shard for one entry. Shard maps are created on first Put, so an idle
// cache is one allocation however many shards it stripes over.
package lru

import (
	"sync"
	"sync/atomic"
)

// MaxShards is the largest stripe count a Cache supports.
const MaxShards = 16

// Config sizes a Cache.
type Config[K comparable, V any] struct {
	// Budget bounds the total cost of the entries held. It is split
	// evenly over the shards, and each shard evicts on its own.
	Budget int64
	// Shards is the stripe count, a power of two up to MaxShards.
	// Zero or one gives a single shard, whose eviction order is exact
	// LRU over the whole cache. The count is lowered when the budget
	// is too small to give every shard at least one unit.
	Shards int
	// Bits returns well-mixed bits of a key; the low bits select the
	// shard. Required when Shards > 1.
	Bits func(K) uint64
	// Cost is one entry's charge against the budget; nil charges one
	// unit per entry, making Budget an entry count.
	Cost func(V) int64
}

// Stats is a point-in-time counter snapshot of a Cache.
type Stats struct {
	Hits, Misses, Puts int64
	// Evictions counts entries dropped to make room; Rejects counts
	// Puts declined because one value exceeded a shard's budget.
	Evictions, Rejects int64
	// Entries and Cost describe current occupancy.
	Entries, Cost int64
}

// Cache is a sharded LRU map. All methods are safe for concurrent use.
// Values are stored and returned as given; callers treat them as
// immutable once Put.
type Cache[K comparable, V any] struct {
	shards   [MaxShards]shard[K, V]
	mask     uint64
	perShard int64
	bits     func(K) uint64
	cost     func(V) int64

	hits, misses, puts, evictions, rejects atomic.Int64
}

// shard is one LRU list. Entries live in the nodes arena and link by
// index, so storing an entry allocates nothing once the arena has
// grown, and a cache whose keys and values hold no pointers is never
// scanned by the garbage collector. Index 0 is a sentinel meaning
// "none", which makes the zero shard a valid empty one.
type shard[K comparable, V any] struct {
	mu    sync.Mutex
	m     map[K]int32
	nodes []node[K, V]
	head  int32 // most recently used
	tail  int32 // least recently used
	free  int32 // first reusable node, chained through next
	cost  int64
}

type node[K comparable, V any] struct {
	key        K
	val        V
	prev, next int32
}

// New allocates a Cache sized by cfg.
func New[K comparable, V any](cfg Config[K, V]) *Cache[K, V] {
	c := new(Cache[K, V])
	c.Init(cfg)
	return c
}

// Init prepares a zero Cache in place, for caches held by value inside
// another type. It must run before any other method.
func (c *Cache[K, V]) Init(cfg Config[K, V]) {
	n := int64(1)
	for n*2 <= int64(cfg.Shards) && n*2 <= MaxShards && n*2 <= cfg.Budget {
		n *= 2
	}
	c.mask = uint64(n - 1)
	c.perShard = max(cfg.Budget/n, 1)
	c.bits, c.cost = cfg.Bits, cfg.Cost
}

func (c *Cache[K, V]) shard(k K) *shard[K, V] {
	if c.mask == 0 {
		return &c.shards[0]
	}
	return &c.shards[c.bits(k)&c.mask]
}

func (c *Cache[K, V]) costOf(v V) int64 {
	if c.cost == nil {
		return 1
	}
	return c.cost(v)
}

// Get returns the value cached under k and marks it most recently
// used. It does not allocate.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	s := c.shard(k)
	s.mu.Lock()
	i, ok := s.m[k]
	if !ok {
		s.mu.Unlock()
		c.misses.Add(1)
		var zero V
		return zero, false
	}
	s.moveToFront(i)
	v := s.nodes[i].val
	s.mu.Unlock()
	c.hits.Add(1)
	return v, true
}

// Put stores v under k as the most recently used entry, replacing any
// value already there, and evicts least recently used entries until
// the shard is back within its budget.
func (c *Cache[K, V]) Put(k K, v V) {
	cost := c.costOf(v)
	if cost > c.perShard {
		c.rejects.Add(1)
		return
	}
	s := c.shard(k)
	s.mu.Lock()
	if i, ok := s.m[k]; ok {
		s.cost += cost - c.costOf(s.nodes[i].val)
		s.nodes[i].val = v
		s.moveToFront(i)
	} else {
		if s.m == nil {
			s.m = map[K]int32{}
		}
		i := s.alloc()
		s.nodes[i].key, s.nodes[i].val = k, v
		s.m[k] = i
		s.pushFront(i)
		s.cost += cost
	}
	for s.cost > c.perShard {
		i := s.tail
		s.cost -= c.costOf(s.nodes[i].val)
		delete(s.m, s.nodes[i].key)
		s.unlink(i)
		s.nodes[i] = node[K, V]{next: s.free}
		s.free = i
		c.evictions.Add(1)
	}
	s.mu.Unlock()
	c.puts.Add(1)
}

// Stats reports cumulative counters and current occupancy.
func (c *Cache[K, V]) Stats() Stats {
	st := Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Puts:      c.puts.Load(),
		Evictions: c.evictions.Load(),
		Rejects:   c.rejects.Load(),
	}
	for i := range c.mask + 1 {
		s := &c.shards[i]
		s.mu.Lock()
		st.Entries += int64(len(s.m))
		st.Cost += s.cost
		s.mu.Unlock()
	}
	return st
}

// Len reports the number of cached entries.
func (c *Cache[K, V]) Len() int { return int(c.Stats().Entries) }

// Walk calls fn on every entry, shard by shard, least recently used
// first within each shard. Each shard is locked while it is walked,
// so fn must not call back into the cache.
func (c *Cache[K, V]) Walk(fn func(K, V)) {
	for i := range c.mask + 1 {
		s := &c.shards[i]
		s.mu.Lock()
		for j := s.tail; j != 0; j = s.nodes[j].prev {
			fn(s.nodes[j].key, s.nodes[j].val)
		}
		s.mu.Unlock()
	}
}

// alloc returns a free node index, reusing an evicted node when there
// is one and growing the arena (past the sentinel) otherwise.
func (s *shard[K, V]) alloc() int32 {
	if i := s.free; i != 0 {
		s.free = s.nodes[i].next
		s.nodes[i].next = 0
		return i
	}
	if len(s.nodes) == 0 {
		s.nodes = make([]node[K, V], 1, 8)
	}
	s.nodes = append(s.nodes, node[K, V]{})
	return int32(len(s.nodes) - 1)
}

// pushFront links node i as the most recently used entry.
func (s *shard[K, V]) pushFront(i int32) {
	s.nodes[i].prev = 0
	s.nodes[i].next = s.head
	if s.head != 0 {
		s.nodes[s.head].prev = i
	}
	s.head = i
	if s.tail == 0 {
		s.tail = i
	}
}

func (s *shard[K, V]) unlink(i int32) {
	n := &s.nodes[i]
	if n.prev != 0 {
		s.nodes[n.prev].next = n.next
	} else {
		s.head = n.next
	}
	if n.next != 0 {
		s.nodes[n.next].prev = n.prev
	} else {
		s.tail = n.prev
	}
	n.prev, n.next = 0, 0
}

func (s *shard[K, V]) moveToFront(i int32) {
	if s.head == i {
		return
	}
	s.unlink(i)
	s.pushFront(i)
}
