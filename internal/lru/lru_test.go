package lru

import (
	"fmt"
	"sync"
	"testing"
)

func intBits(k int) uint64 { return uint64(k) }

// TestEvictionOrder: a single-shard cache evicts exactly the least
// recently used entry, and Get counts as a use.
func TestEvictionOrder(t *testing.T) {
	c := New(Config[int, string]{Budget: 3})
	for k := 1; k <= 3; k++ {
		c.Put(k, fmt.Sprint(k))
	}
	if _, ok := c.Get(1); !ok {
		t.Fatal("1 missing before eviction")
	}
	c.Put(4, "4")
	if _, ok := c.Get(2); ok {
		t.Error("least recently used entry 2 survived")
	}
	for _, k := range []int{1, 3, 4} {
		if v, ok := c.Get(k); !ok || v != fmt.Sprint(k) {
			t.Errorf("entry %d: %q %t", k, v, ok)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 3 || st.Cost != 3 || st.Puts != 4 {
		t.Errorf("stats %+v", st)
	}
}

// TestCostAccounting: a cost function charges each entry its own cost,
// replacing a value re-charges it, and eviction refunds exactly what
// was charged, so Cost always equals the sum over live entries.
func TestCostAccounting(t *testing.T) {
	c := New(Config[int, []byte]{
		Budget: 4 * 100, Shards: 4, Bits: intBits,
		Cost: func(v []byte) int64 { return int64(len(v)) },
	})
	live := map[int]int{}
	for i := 0; i < 400; i++ {
		k := (i * 7) % 23
		n := 1 + (i*13)%60
		c.Put(k, make([]byte, n))
		live[k] = n
	}
	var want int64
	entries := 0
	c.Walk(func(k int, v []byte) {
		if live[k] != len(v) {
			t.Errorf("key %d holds %d bytes, last put %d", k, len(v), live[k])
		}
		want += int64(len(v))
		entries++
	})
	st := c.Stats()
	if st.Cost != want || st.Entries != int64(entries) {
		t.Errorf("stats cost %d entries %d, walk found %d and %d", st.Cost, st.Entries, want, entries)
	}
	if st.Cost > 400 || st.Evictions == 0 {
		t.Errorf("cost %d over budget 400 or no evictions (%d)", st.Cost, st.Evictions)
	}
}

// TestOversizeRejected: a value costing more than a shard's slice of
// the budget is declined and leaves the shard's entries in place.
func TestOversizeRejected(t *testing.T) {
	c := New(Config[int, int]{Budget: 8, Shards: 2, Bits: intBits,
		Cost: func(v int) int64 { return int64(v) }})
	c.Put(0, 3)
	c.Put(2, 5)
	if _, ok := c.Get(2); ok {
		t.Error("value above the shard budget of 4 was cached")
	}
	if _, ok := c.Get(0); !ok {
		t.Error("existing entry lost to an oversize put")
	}
	if st := c.Stats(); st.Rejects != 1 || st.Evictions != 0 {
		t.Errorf("stats %+v", st)
	}
}

// TestShardsFitBudget: a budget smaller than the shard count lowers
// the stripe count, so entries never exceed the budget.
func TestShardsFitBudget(t *testing.T) {
	for budget := int64(1); budget <= 20; budget++ {
		c := New(Config[int, int]{Budget: budget, Shards: MaxShards, Bits: intBits})
		for k := 0; k < 100; k++ {
			c.Put(k, k)
		}
		if n := c.Len(); int64(n) > budget || n == 0 {
			t.Errorf("budget %d: %d entries", budget, n)
		}
	}
}

// TestWalkOldestFirst: within a shard, Walk visits entries least
// recently used first.
func TestWalkOldestFirst(t *testing.T) {
	c := New(Config[int, int]{Budget: 10})
	for k := 0; k < 5; k++ {
		c.Put(k, k)
	}
	c.Get(1)
	var order []int
	c.Walk(func(k, _ int) { order = append(order, k) })
	if fmt.Sprint(order) != "[0 2 3 4 1]" {
		t.Errorf("walk order %v", order)
	}
}

// TestConcurrentChurn is the race gate: readers and writers over
// overlapping keys in a cache small enough to evict constantly. Every
// hit returns the value last stored under its key.
func TestConcurrentChurn(t *testing.T) {
	c := New(Config[int, int]{Budget: 32, Shards: MaxShards, Bits: intBits})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := (g*31 + i) % 97
				if i%3 == 0 {
					c.Put(k, k*k)
				}
				if v, ok := c.Get(k); ok && v != k*k {
					t.Errorf("key %d: got %d", k, v)
					return
				}
				if i%100 == 0 {
					c.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Entries > 32 || st.Evictions == 0 || st.Hits+st.Misses != 8*2000 {
		t.Errorf("stats %+v", st)
	}
}

// TestAllocs guards the two allocation promises: a fresh cache is one
// allocation however many shards it has, and Get allocates nothing.
func TestAllocs(t *testing.T) {
	cfg := Config[[2]uint64, [3]float64]{Budget: 1 << 10, Shards: MaxShards,
		Bits: func(k [2]uint64) uint64 { return k[1] }}
	var sink *Cache[[2]uint64, [3]float64]
	if n := testing.AllocsPerRun(100, func() { sink = New(cfg) }); n != 1 {
		t.Errorf("New: %.0f allocations, want 1", n)
	}
	c := sink
	for i := uint64(0); i < 64; i++ {
		c.Put([2]uint64{i, i * 3}, [3]float64{float64(i)})
	}
	k := [2]uint64{0, 0}
	if n := testing.AllocsPerRun(100, func() {
		k[0] = (k[0] + 1) % 128
		k[1] = k[0] * 3
		c.Get(k)
	}); n != 0 {
		t.Errorf("Get: %.1f allocations, want 0", n)
	}
}
