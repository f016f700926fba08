package aggregate

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"perfpredict/internal/machine"
	"perfpredict/internal/sem"
	"perfpredict/internal/source"
)

// TestReusedWorkspaceMatchesFresh prices every corpus program on every
// golden target, in shuffled order, through one reused workspace and
// through a zero workspace of its own: the reused translator is rebound
// to another program's table, and rebuilt for another HasFMA, between
// pricings, and the rendered results must be equal.
func TestReusedWorkspaceMatchesFresh(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(corpusDir, "golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]map[string]string
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	type job struct {
		name string
		p    *source.Program
		tbl  *sem.Table
		m    *machine.Machine
	}
	progs := make([]string, 0, len(golden))
	for prog := range golden {
		progs = append(progs, prog)
	}
	sort.Strings(progs)
	machines := map[string]*machine.Machine{}
	var jobs []job
	for _, prog := range progs {
		src, err := os.ReadFile(filepath.Join(corpusDir, "programs", prog))
		if err != nil {
			t.Fatal(err)
		}
		p, tbl := parseAnalyze(t, string(src))
		names := make([]string, 0, len(golden[prog]))
		for name := range golden[prog] {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if machines[name] == nil {
				machines[name] = corpusTarget(t, name)
			}
			jobs = append(jobs, job{prog + " on " + name, p, tbl, machines[name]})
		}
	}
	if len(machines) != 8 {
		t.Fatalf("%d golden targets, want 8", len(machines))
	}
	rand.New(rand.NewPCG(1, 2)).Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	var reused Workspace
	for _, j := range jobs {
		got, err := reused.PriceIncremental(j.p, nil, Caches{}, j.tbl, j.m, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", j.name, err)
		}
		want, err := new(Workspace).PriceIncremental(j.p, nil, Caches{}, j.tbl, j.m, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", j.name, err)
		}
		if a, b := fmt.Sprint(got), fmt.Sprint(want); a != b {
			t.Errorf("%s: through a reused workspace\n%s\nthrough a fresh one\n%s", j.name, a, b)
		}
	}
}
