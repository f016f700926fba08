package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"time"

	"perfpredict"
	"perfpredict/internal/aggregate"
	"perfpredict/internal/explore"
	"perfpredict/internal/machine"
	"perfpredict/internal/symexpr"
)

// exploreRate is the nominal sweeps per second of explore.
const exploreRate = 18

// exploreTemplate is POWER1 with ranged dispatch width and FPU/FXU
// pipe counts, every pipe and dispatch slot costing 1: 4 × 3 × 2 = 24
// cells.
const exploreTemplate = `{"base_machine": "POWER1", "dispatch": [2, 5], "pipes": {"FPU": [1, 3], "FXU": [1, 2]}, "budget": {}}`

// exploreRanking orders the middle half of the corpus by the time of
// a 24-cell sweep of the program alone (fastest first; 8.5 to 11.5 ms
// on a 2-core x86-64; the whole corpus spans 7 to 14 ms).
var exploreRanking = []string{
	"prog034.f", "prog028.f", "prog020.f", "prog048.f", "prog009.f",
	"prog049.f", "prog042.f", "prog037.f", "prog043.f", "prog033.f",
	"prog003.f", "prog035.f", "prog036.f", "prog007.f", "prog046.f",
	"prog006.f", "prog038.f", "prog012.f", "prog030.f", "prog016.f",
	"prog050.f", "prog002.f", "prog045.f", "prog001.f", "prog023.f",
}

// exploreSets is how many kernel sets a run sweeps in turn. Each holds
// the five fixed kernels and one program from each fifth of
// exploreRanking, dealt by the seed; together the sets use every
// program of the ranking once, so every seed's mix costs the same.
const exploreSets = 5

// exploreWL is design-space exploration: one operation is one
// ExploreCtx sweep of the template over one kernel set, with a fresh
// segment cache and nproc workers; sweeps run one at a time.
type exploreWL struct {
	opt   options
	tpl   *perfpredict.MachineTemplate
	sets  []exploreSet
	order []int32
	// checkCell is the seeded cell verify re-prices directly.
	checkCell int
	tc        counts
}

type exploreSet struct {
	kernels []perfpredict.ExploreKernel
	// ref is the warm pass's sweep; every later sweep must repeat it.
	ref *perfpredict.ExploreResult
}

// latency: the sets differ in cost, so, as for optimize, p50 is the
// geometric mean of each set's median sweep and p99 the tail over the
// sets' medians.
func (w *exploreWL) latency(st *phaseStats) (p50, p99 float64) { return perInput(st) }

func (w *exploreWL) setup(l *spanLog) error {
	corpus, err := loadCorpus()
	if err != nil {
		return err
	}
	w.tpl, err = perfpredict.ParseMachineTemplate([]byte(exploreTemplate))
	if err != nil {
		return err
	}
	byName := map[string]corpusProg{}
	for _, c := range corpus {
		byName[c.name] = c
	}
	w.sets = make([]exploreSet, exploreSets)
	for i := range w.sets {
		for _, n := range []string{"matmul44", "jacobi", "f2", "f6", "daxpy"} {
			w.sets[i].kernels = append(w.sets[i].kernels, perfpredict.ExploreKernel{Name: n, Source: mustKernel(n).Src})
		}
	}
	r := rand.New(rand.NewSource(w.opt.seed))
	for lo := 0; lo < len(exploreRanking); lo += exploreSets {
		for i, j := range r.Perm(exploreSets) {
			c := byName[exploreRanking[lo+j]]
			w.sets[i].kernels = append(w.sets[i].kernels, perfpredict.ExploreKernel{Name: c.name, Source: c.src})
		}
	}
	// Warm pass: two sweeps of each set, the first of which is the
	// reference.
	for i := range w.sets {
		for k := 0; k < 2; k++ {
			res, err := w.op(nil, -1, &w.sets[i])
			if err != nil {
				return err
			}
			if k == 0 {
				w.sets[i].ref = res
			}
		}
	}
	w.checkCell = r.Intn(w.sets[0].ref.Cells)
	passes := max(1, int(math.Round(float64(w.opt.seconds*exploreRate)/exploreSets)))
	w.order = w.order[:0]
	for p := 0; p < passes; p++ {
		for _, i := range r.Perm(exploreSets) {
			w.order = append(w.order, int32(i))
		}
	}
	return nil
}

func (w *exploreWL) op(l *spanLog, id int32, set *exploreSet) (*perfpredict.ExploreResult, error) {
	seg := perfpredict.NewSegmentCache()
	s := l.begin("perfpredict.ExploreCtx", -1, id)
	res, err := perfpredict.ExploreCtx(context.Background(), w.tpl, set.kernels, perfpredict.ExploreOptions{
		Workers: runtime.GOMAXPROCS(0), SegCache: seg,
	})
	l.end(s)
	if l != nil && err == nil {
		h, m := seg.Stats()
		w.tc["sweeps"]++
		w.tc["cells"] += float64(res.Cells)
		w.tc["seg_hits"] += float64(h)
		w.tc["seg_lookups"] += float64(h + m)
		w.tc["seg_entries"] += float64(seg.Len())
	}
	return res, err
}

func (w *exploreWL) phase(tr *tracer) *phaseStats {
	st := newPhaseStats(len(w.order))
	l := tr.log()
	if l != nil {
		w.tc = counts{}
	}
	for i, idx := range w.order {
		set := &w.sets[idx]
		t0 := time.Now()
		res, err := w.op(l, int32(i), set)
		st.record(i, int(idx), t0)
		if err == nil && !reflect.DeepEqual(res, set.ref) {
			err = fmt.Errorf("sweep result differs from the first sweep's")
		}
		if err != nil {
			st.fail("explore set %d: %v", idx, err)
		}
	}
	return st
}

// verify checks each set's reference sweep, which every timed sweep of
// the set repeated exactly.
func (w *exploreWL) verify() []string {
	var out []string
	for i := range w.sets {
		for _, p := range w.verifySet(&w.sets[i]) {
			out = append(out, fmt.Sprintf("explore set %d: %s", i, p))
		}
	}
	return out
}

// verifySet checks a reference sweep: front members are mutually
// non-dominated, every pruned cell's witness dominates it, and the
// seeded cell's costs equal a direct Predict on that expanded machine.
func (w *exploreWL) verifySet(set *exploreSet) []string {
	var out []string
	ref := set.ref
	byIndex := map[int]*perfpredict.ExploreCell{}
	for i := range ref.Front {
		a := &ref.Front[i]
		byIndex[a.Index] = a
		for j := range ref.Front {
			if i != j && explore.Dominates(a, &ref.Front[j]) {
				out = append(out, fmt.Sprintf("front cell %d dominates front cell %d", a.Index, ref.Front[j].Index))
			}
		}
	}
	costs := map[int][]float64{}
	for _, c := range ref.Front {
		costs[c.Index] = c.Costs
	}
	for _, p := range ref.Pruned {
		costs[p.Index] = p.Costs
		wit, ok := byIndex[p.DominatedBy]
		if !ok || !explore.Dominates(wit, &perfpredict.ExploreCell{Index: p.Index, Budget: p.Budget, Costs: p.Costs}) {
			out = append(out, fmt.Sprintf("pruned cell %d is not dominated by its witness %d", p.Index, p.DominatedBy))
		}
	}
	expanded, err := w.tpl.Expand()
	if err != nil {
		return append(out, fmt.Sprintf("expanding the template: %v", err))
	}
	m, err := expanded[w.checkCell].Spec.Machine()
	if err != nil {
		return append(out, fmt.Sprintf("cell %d: %v", w.checkCell, err))
	}
	for ki, k := range set.kernels {
		p, err := perfpredict.Predict(k.Source, m)
		if err != nil {
			out = append(out, fmt.Sprintf("cell %d kernel %s: %v", w.checkCell, k.Name, err))
			continue
		}
		// The sweep's evaluation point: probabilities 0.5, other
		// unknowns 100.
		assign := map[symexpr.Var]float64{}
		for _, u := range p.Unknowns {
			assign[symexpr.Var(u.Name)] = 100
			if u.Kind == "probability" {
				assign[symexpr.Var(u.Name)] = 0.5
			}
		}
		got, err := p.Cost.Eval(assign)
		want := costs[w.checkCell][ki]
		if err != nil || !approxEqual(got, want) {
			out = append(out, fmt.Sprintf("cell %d kernel %s: direct prediction %v (err %v), sweep %v",
				w.checkCell, k.Name, got, err, want))
		}
	}
	return out
}

// replay re-issues the template expansion, the per-cell machine
// builds, the pipeline on each kernel, and one sweep of each set on
// one worker for the worker-pool speed-up.
func (w *exploreWL) replay(l *spanLog, c counts) error {
	var expanded []machine.Expanded
	for i := 0; i < 3; i++ {
		s := l.begin("machine.expand", -1, -1)
		var err error
		expanded, err = w.tpl.Expand()
		l.end(s)
		if err != nil {
			return err
		}
	}
	for i, e := range expanded {
		data, err := e.Spec.Encode()
		if err != nil {
			return err
		}
		if _, err := buildSpec(l, data, int32(i)); err != nil {
			return fmt.Errorf("cell %s: %w", e.Spec.Name, err)
		}
	}
	m := perfpredict.POWER1()
	for i := range w.sets {
		set := &w.sets[i]
		for _, k := range set.kernels {
			if _, err := replayProgram(l, c, int32(i), k.Source, m, aggregate.NewSegCache()); err != nil {
				return fmt.Errorf("%s: %w", k.Name, err)
			}
		}
		s := l.begin("explore.one_worker", -1, int32(i))
		_, err := perfpredict.ExploreCtx(context.Background(), w.tpl, set.kernels, perfpredict.ExploreOptions{Workers: 1})
		l.end(s)
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *exploreWL) layers(sum map[string]spanStat, c counts, m map[string]float64) map[string]string {
	tc := w.tc
	sweeps := sum["perfpredict.ExploreCtx"]
	cellsPerSec := tc["cells"] / sweeps.total.Seconds()
	m["explore.cells_per_s"] = cellsPerSec
	front := 0
	for _, set := range w.sets {
		front += len(set.ref.Front)
	}
	m["explore.front_size"] = float64(front) / float64(len(w.sets))
	one := sum["explore.one_worker"]
	m["workpool.speedup"] = cellsPerSec / (float64(w.sets[0].ref.Cells*one.n) / one.total.Seconds())
	m["aggregate.seg_hit_ratio"] = tc.ratio("seg_hits", "seg_lookups")
	m["aggregate.seg_entries"] = tc.ratio("seg_entries", "sweeps")
	return nil
}
