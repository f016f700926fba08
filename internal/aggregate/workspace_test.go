package aggregate

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"perfpredict/internal/machine"
	"perfpredict/internal/sem"
	"perfpredict/internal/source"
)

// TestReusedWorkspaceMatchesFresh prices every corpus program on every
// golden target, in shuffled order, through one reused workspace and
// through a zero workspace of its own: the reused translator is rebound
// to another program's table and another target between pricings, and
// the rendered results must be equal.
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

// TestReleasedWorkspaceHoldsNoAST: a workspace given back to the pool
// keeps its storage but no node of the programs it priced, so a pooled
// workspace keeps no program alive. Every node of a priced program
// carries a finalizer, the workspace stays reachable after Release,
// and every finalizer must run.
func TestReleasedWorkspaceHoldsNoAST(t *testing.T) {
	src, err := os.ReadFile(filepath.Join(corpusDir, "programs", "prog001.f"))
	if err != nil {
		t.Fatal(err)
	}
	m := machine.NewPOWER1()
	ws := AcquireWorkspace()
	var freed, total atomic.Int64
	func() {
		p, tbl := parseAnalyze(t, string(src))
		caches := Caches{Seg: NewSegCache(), Nest: NewNestCache(), Nodes: source.NewNodeMemo()}
		if _, err := ws.PriceIncremental(p, nil, caches, tbl, m, DefaultOptions()); err != nil {
			t.Fatal(err)
		}
		track := func(node any) {
			total.Add(1)
			runtime.SetFinalizer(node, func(any) { freed.Add(1) })
		}
		track(p)
		walkAST(p.Body, track)
	}()
	ws.Release()
	for i := 0; i < 200 && freed.Load() < total.Load(); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if n, of := freed.Load(), total.Load(); n < of {
		t.Errorf("after Release, %d of %d AST nodes are still reachable", of-n, of)
	}
	runtime.KeepAlive(ws)
}

// walkAST calls visit on every statement and expression node of list.
func walkAST(list []source.Stmt, visit func(any)) {
	var expr func(source.Expr)
	expr = func(e source.Expr) {
		if e == nil {
			return
		}
		visit(e)
		switch x := e.(type) {
		case *source.ArrayRef:
			for _, ix := range x.Idx {
				expr(ix)
			}
		case *source.BinExpr:
			expr(x.L)
			expr(x.R)
		case *source.UnExpr:
			expr(x.X)
		case *source.IntrinsicCall:
			for _, a := range x.Args {
				expr(a)
			}
		}
	}
	for _, s := range list {
		visit(s)
		switch x := s.(type) {
		case *source.Assign:
			expr(x.LHS)
			expr(x.RHS)
		case *source.DoLoop:
			expr(x.Lb)
			expr(x.Ub)
			expr(x.Step)
			walkAST(x.Body, visit)
		case *source.IfStmt:
			expr(x.Cond)
			walkAST(x.Then, visit)
			walkAST(x.Else, visit)
		case *source.CallStmt:
			for _, a := range x.Args {
				expr(a)
			}
		}
	}
}
