package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"perfpredict/internal/machine"
	"perfpredict/internal/resultcache"
)

// TestBoundedServerNeverChangesBodies drives a server whose every
// cache is far smaller than its working set with unique programs and
// unique inline specs on /v1/batch and /v1/optimize. Every cache stays
// within its budget, every cache evicts, and every body equals the
// one a fresh default-sized server gives.
func TestBoundedServerNeverChangesBodies(t *testing.T) {
	b := budgets{seg: 4, nest: 2, programs: 8, targets: 2}
	const resultBytes = 16 * 512
	s := newServer(Config{ResultCacheBytes: resultBytes}, b)
	h := s.Handler()
	_, corpus := corpusSources(t)
	sp, err := machine.ParseSpec(power1Spec(t))
	if err != nil {
		t.Fatal(err)
	}
	check := func(what, path string, req any) {
		t.Helper()
		got := mustServe(t, h, path, req)
		if want := mustServe(t, New(Config{}).Handler(), path, req); !bytes.Equal(got, want) {
			t.Fatalf("%s differs from a fresh server:\n%s\n%s", what, got, want)
		}
		st := s.Results().Stats()
		switch {
		case s.seg.Len() > b.seg:
			t.Fatalf("%s: segment cache holds %d entries, budget %d", what, s.seg.Len(), b.seg)
		case s.nest.Len() > b.nest:
			t.Fatalf("%s: nest cache holds %d entries, budget %d", what, s.nest.Len(), b.nest)
		case s.programs.Len() > b.programs:
			t.Fatalf("%s: program memo holds %d entries, budget %d", what, s.programs.Len(), b.programs)
		case s.targets.Len() > b.targets:
			t.Fatalf("%s: target memo holds %d entries, budget %d", what, s.targets.Len(), b.targets)
		case st.Bytes > resultBytes:
			t.Fatalf("%s: result cache holds %d bytes, budget %d", what, st.Bytes, resultBytes)
		}
	}
	for i := 0; i < 12; i++ {
		// Every third spec repeats, so the target memo both hits and
		// evicts.
		sp.BranchCost = i - i%3
		spec, err := json.Marshal(sp)
		if err != nil {
			t.Fatal(err)
		}
		unique := fmt.Sprintf("program p\ninteger i\nreal a(64), s\ndo i = 1, 64\ns = s + a(i) * %d.0\nenddo\nend\n", i)
		check(fmt.Sprintf("batch %d", i), "/v1/batch", BatchRequest{
			Sources: []string{corpus[i%len(corpus)], unique, corpus[(i+1)%len(corpus)]},
			Spec:    spec,
		})
		check(fmt.Sprintf("optimize %d", i), "/v1/optimize", OptimizeRequest{
			Source: unique, Spec: spec, MaxNodes: 6, MaxDepth: 2,
		})
	}
	for name, ev := range map[string]int64{
		"segment cache": int64(s.seg.Evictions()),
		"nest cache":    int64(s.nest.Evictions()),
		"program memo":  s.programs.Stats().Evictions,
		"target memo":   s.targets.Stats().Evictions,
		"result cache":  s.Results().Stats().Evictions,
	} {
		if ev == 0 {
			t.Errorf("%s never evicted; the budget does not constrain it", name)
		}
	}
}

// TestFinishedJobRetention: the job table keeps at most
// maxFinishedJobs finished jobs, forgetting the least recently polled
// first, and never drops an unfinished job.
func TestFinishedJobRetention(t *testing.T) {
	m := newJobManager(1)
	pending := m.newJob(resultcache.Key{Hi: 1}, "opt-", jobPending, nil)
	polled := m.newJob(resultcache.Key{Hi: 2}, "opt-", jobDone, nil)
	stale := m.newJob(resultcache.Key{Hi: 3}, "opt-", jobDone, nil)
	for i := 0; i < maxFinishedJobs-1; i++ {
		if _, ok := m.get(polled.id); !ok {
			t.Fatalf("polled job forgotten after %d newer jobs", i)
		}
		m.newJob(resultcache.Key{Lo: uint64(i)}, "exp-", jobFailed, nil)
	}
	if _, ok := m.get(stale.id); ok {
		t.Error("least recently polled finished job retained beyond the cap")
	}
	if _, ok := m.get(pending.id); !ok {
		t.Error("unfinished job dropped")
	}
	m.finish(pending, []byte(`{}`), nil)
	if j, ok := m.get(pending.id); !ok || j.status().State != jobDone {
		t.Error("finished job not retained")
	}
	if n := m.finished.Len(); n != maxFinishedJobs {
		t.Errorf("%d finished jobs retained, cap %d", n, maxFinishedJobs)
	}
}

// TestDefaultWorkersCapAtGOMAXPROCS: with Workers unset, a request's
// worker ask is capped at GOMAXPROCS, so a batch cannot start one
// goroutine per source.
func TestDefaultWorkersCapAtGOMAXPROCS(t *testing.T) {
	if got, want := New(Config{}).boundWorkers(1<<20), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("boundWorkers(1<<20) = %d with the default config, want GOMAXPROCS = %d", got, want)
	}
}
