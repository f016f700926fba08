package aggregate

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"perfpredict/internal/machine"
)

// corpusDir holds the generated golden corpus (see the root package's
// TestCorpusGoldenPredictions).
var corpusDir = filepath.Join("..", "..", "testdata", "corpus")

// corpusTarget loads a golden-table target: a generated spec file when
// one is named so, else a builtin machine.
func corpusTarget(t *testing.T, name string) *machine.Machine {
	t.Helper()
	if data, err := os.ReadFile(filepath.Join(corpusDir, "specs", name+".json")); err == nil {
		sp, err := machine.ParseSpec(data)
		if err != nil {
			t.Fatal(err)
		}
		m, err := sp.Machine()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m, err := machine.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestEvictionNeverChangesCosts prices every corpus program on every
// golden target, twice, through one segment cache and one nest cache
// whose budgets are far too small for any program: every program
// evicts, and every pricing still matches its golden cost and a
// cache-less full pricing.
func TestEvictionNeverChangesCosts(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(corpusDir, "golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]map[string]string
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	progs := make([]string, 0, len(golden))
	for p := range golden {
		progs = append(progs, p)
	}
	sort.Strings(progs)
	const budget = 2
	seg, nest := NewSegCacheSized(budget), NewNestCacheSized(budget)
	caches := Caches{Seg: seg, Nest: nest}
	machines := map[string]*machine.Machine{}
	for _, prog := range progs {
		src, err := os.ReadFile(filepath.Join(corpusDir, "programs", prog))
		if err != nil {
			t.Fatal(err)
		}
		p, tbl := parseAnalyze(t, string(src))
		names := make([]string, 0, len(golden[prog]))
		for n := range golden[prog] {
			names = append(names, n)
		}
		sort.Strings(names)
		evicted := seg.Evictions() + nest.Evictions()
		for _, name := range names {
			m := machines[name]
			if m == nil {
				m = corpusTarget(t, name)
				machines[name] = m
			}
			full, err := New(tbl, m, DefaultOptions()).Program(p)
			if err != nil {
				t.Fatalf("%s on %s: %v", prog, name, err)
			}
			if got := full.Cost.String(); got != golden[prog][name] {
				t.Errorf("%s on %s: cost %q, golden %q", prog, name, got, golden[prog][name])
			}
			for pass := 0; pass < 2; pass++ {
				inc, err := PriceIncremental(p, nil, caches, tbl, m, DefaultOptions())
				if err != nil {
					t.Fatalf("%s on %s: %v", prog, name, err)
				}
				if a, b := fmt.Sprint(inc), fmt.Sprint(full); a != b {
					t.Errorf("%s on %s, pass %d: incremental pricing under eviction\n%s\nfull pricing\n%s",
						prog, name, pass, a, b)
				}
			}
			if n, m := seg.Len(), nest.Len(); n > budget || m > budget {
				t.Fatalf("%s on %s: %d segment and %d nest entries, budget %d", prog, name, n, m, budget)
			}
		}
		if seg.Evictions()+nest.Evictions() == evicted {
			t.Errorf("%s: no evictions; the budget does not constrain it", prog)
		}
	}
	if h, _ := seg.Stats(); h == 0 {
		t.Error("no segment-cache hits at all: the test exercises no reuse")
	}
	if h, _ := nest.Stats(); h == 0 {
		t.Error("no nest-cache hits at all: the test exercises no reuse")
	}
}
