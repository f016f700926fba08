package aggregate

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"perfpredict/internal/machine"
	"perfpredict/internal/sem"
	"perfpredict/internal/source"
)

// declLoop is one loop over x and y; the declarations placed before it
// decide whether it runs on the FPU or the FXU.
const declLoop = `
  do i = 1, n
    x(i) = x(i) * y(i) + x(i)
  end do
end
`

func parseAnalyze(t *testing.T, src string) (*source.Program, *sem.Table) {
	t.Helper()
	p, err := source.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := sem.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	return p, tbl
}

// TestSegCacheKeysOnDeclarations is the declared-type regression test:
// the same statements over real and over integer arrays lower to
// different operations, so a shared segment cache must not hand the
// integer program the real program's price. Before declarations were
// part of the segment key, the integer loop read 4.75·n + 3 from the
// cache instead of its own 10.25·n + 3.
func TestSegCacheKeysOnDeclarations(t *testing.T) {
	m := machine.NewPOWER1()
	shared := NewSegCache()
	for _, decl := range []string{"real x(100), y(100)", "integer x(100), y(100)"} {
		p, tbl := parseAnalyze(t, "program p\n  integer i, n\n  "+decl+declLoop)
		want, err := New(tbl, m, DefaultOptions()).Program(p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := NewWithCache(tbl, m, DefaultOptions(), shared).Program(p)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cost.String() != want.Cost.String() {
			t.Errorf("%s: shared cache priced %s, a fresh one %s", decl, got.Cost, want.Cost)
		}
	}
}

// TestSegCacheKeyIgnoresUnreferencedDecls: declarations of names a
// segment never mentions stay out of its key, so a program variant
// that only adds declarations (as tiling does) still hits every
// segment.
func TestSegCacheKeyIgnoresUnreferencedDecls(t *testing.T) {
	m := machine.NewPOWER1()
	shared := NewSegCache()
	base := "program p\n  integer i, n\n  real x(100), y(100)\n"
	p, tbl := parseAnalyze(t, base+declLoop)
	if _, err := NewWithCache(tbl, m, DefaultOptions(), shared).Program(p); err != nil {
		t.Fatal(err)
	}
	hits0, misses0 := shared.Stats()
	p2, tbl2 := parseAnalyze(t, base+"  integer it\n  real z(50)\n"+declLoop)
	if _, err := NewWithCaches(tbl2, m, DefaultOptions(), Caches{Seg: shared}).Program(p2); err != nil {
		t.Fatal(err)
	}
	hits, misses := shared.Stats()
	if misses != misses0 || hits == hits0 {
		t.Errorf("extra declarations changed the segment keys: %d new misses, %d new hits",
			misses-misses0, hits-hits0)
	}
}

// TestTranslatorBuiltOnlyOnMiss: an estimator binds its workspace's
// translator on its first lowering-memo miss, so one whose lowerings
// all hit a shared memo (a sweep cell after the first) runs no
// translator pass, and prices the program the same.
func TestTranslatorBuiltOnlyOnMiss(t *testing.T) {
	m := machine.NewPOWER1()
	p, tbl := parseAnalyze(t, "program p\n  integer i, n\n  real x(100), y(100)\n"+declLoop)
	memo := NewLowerMemo()
	var costs []string
	for i, wantPasses := range []bool{true, false} {
		e := NewWithCaches(tbl, m, DefaultOptions(), Caches{Lower: memo})
		r, err := e.Program(p)
		if err != nil {
			t.Fatal(err)
		}
		if got := e.passes > 0; got != wantPasses {
			t.Errorf("estimator %d: translator passes run = %v, want %v", i, got, wantPasses)
		}
		costs = append(costs, r.Cost.String())
	}
	if costs[0] != costs[1] {
		t.Errorf("warm memo priced %s, cold %s", costs[1], costs[0])
	}
}

// TestNilSegCacheKeysNothing: a nil segment cache means none. A
// cache-less pricing neither keys nor stores a segment: it prices the
// same as a pricing through a fresh cache, never builds the key
// builders' name set, and allocates strictly less. Under -race,
// sync.Pool drops pooled scratch at random, so allocation counts vary
// more than the margin between the two; the race build checks the
// prices, that no key was built and that the fresh cache was filled.
func TestNilSegCacheKeysNothing(t *testing.T) {
	src, err := os.ReadFile(filepath.Join(corpusDir, "programs", "prog001.f"))
	if err != nil {
		t.Fatal(err)
	}
	p, tbl := parseAnalyze(t, string(src))
	m := machine.NewPOWER1()
	price := func(est *Estimator) Result {
		res, err := est.Program(p)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	bare, cache := New(tbl, m, DefaultOptions()), NewSegCache()
	keyed := NewWithCache(tbl, m, DefaultOptions(), cache)
	bare.ws, keyed.ws = new(Workspace), new(Workspace) // kept after the pricing, for the name-set checks
	none, fresh := price(bare), price(keyed)
	if a, b := fmt.Sprint(none), fmt.Sprint(fresh); a != b {
		t.Fatalf("cache-less pricing\n%s\ndiffers from a fresh cache's\n%s", a, b)
	}
	if bare.ws.names != nil {
		t.Error("a cache-less pricing built a segment key")
	}
	if keyed.ws.names == nil || cache.Len() == 0 {
		t.Errorf("pricing through a fresh cache keyed nothing (%d entries stored)", cache.Len())
	}
	if raceEnabled {
		return
	}
	noneAllocs := testing.AllocsPerRun(20, func() { price(New(tbl, m, DefaultOptions())) })
	freshAllocs := testing.AllocsPerRun(20, func() { price(NewWithCache(tbl, m, DefaultOptions(), NewSegCache())) })
	t.Logf("allocations per pricing: %v cache-less, %v through a fresh cache", noneAllocs, freshAllocs)
	if noneAllocs >= freshAllocs {
		t.Errorf("cache-less pricing allocates %v times, a fresh cache's %v: a nil cache still builds or fills one",
			noneAllocs, freshAllocs)
	}
}
