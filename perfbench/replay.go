package main

import (
	"fmt"

	"perfpredict"
	"perfpredict/internal/aggregate"
	"perfpredict/internal/lower"
	"perfpredict/internal/sem"
	"perfpredict/internal/source"
	"perfpredict/internal/symexpr"
	"perfpredict/internal/tetris"
)

// counts accumulates per-layer counters of a traced run by name.
type counts map[string]float64

func (c counts) ratio(num, den string) float64 {
	if c[den] == 0 {
		return 0
	}
	return c[num] / c[den]
}

// replayProgram re-issues, each inside its own span, the public calls
// a prediction of src on m makes inside the library: source.Parse,
// source.FingerprintProgram, sem.Analyze, aggregate Program through
// seg, lower Body and tetris.Estimate on each innermost block (as
// AnalyzeInnermostBlock does), and the evaluation and rendering of the
// cost. It returns the aggregated result.
func replayProgram(l *spanLog, c counts, op int32, src string, m *perfpredict.Target, seg *aggregate.SegCache) (aggregate.Result, error) {
	s := l.begin("source.parse", -1, op)
	prog, err := source.Parse(src)
	l.end(s)
	if err != nil {
		return aggregate.Result{}, err
	}
	s = l.begin("source.fingerprint", -1, op)
	source.FingerprintProgram(prog)
	l.end(s)
	s = l.begin("sem.analyze", -1, op)
	tbl, err := sem.Analyze(prog)
	l.end(s)
	if err != nil {
		return aggregate.Result{}, err
	}

	h0, m0 := seg.Stats()
	s = l.begin("aggregate.program", -1, op)
	res, err := aggregate.NewWithCache(tbl, m, aggregate.DefaultOptions(), seg).Program(prog)
	l.end(s)
	if err != nil {
		return aggregate.Result{}, err
	}
	h1, m1 := seg.Stats()
	c["aggregate.seg_hits"] += float64(h1 - h0)
	c["aggregate.seg_lookups"] += float64(h1 - h0 + m1 - m0)

	tr := lower.New(tbl, m, lower.DefaultOptions())
	for _, b := range innermostBlocks(prog.Body, nil) {
		s = l.begin("lower.body", -1, op)
		lw, err := tr.Body(b.body, b.vars)
		l.end(s)
		if err != nil {
			return aggregate.Result{}, fmt.Errorf("lower: %w", err)
		}
		n := len(lw.Body.Instrs)
		s = l.begin("tetris.estimate", -1, op)
		_, err = tetris.Estimate(m, lw.Body, tetris.Options{})
		l.end(s)
		if err != nil {
			return aggregate.Result{}, fmt.Errorf("tetris: %w", err)
		}
		c["lower.blocks"]++
		c["lower.ir_ops"] += float64(n)
	}

	assign := map[symexpr.Var]float64{}
	for _, v := range res.Cost.Vars() {
		assign[v] = 64
	}
	s = l.begin("symexpr.eval", -1, op)
	_, err = res.Cost.Eval(assign)
	l.end(s)
	if err != nil {
		return aggregate.Result{}, err
	}
	s = l.begin("symexpr.string", -1, op)
	_ = res.Cost.String()
	l.end(s)
	c["symexpr.costs"]++
	c["symexpr.terms"] += float64(res.Cost.NumTerms())
	return res, nil
}

// replayMemoryExtra prices prog on a machine with a memory hierarchy
// and on the same machine without one; the difference of the two
// span means is the cachemodel layer's share of aggregation.
func replayMemoryExtra(l *spanLog, op int32, src string, withMem, without *perfpredict.Target) error {
	prog, err := source.Parse(src)
	if err != nil {
		return err
	}
	tbl, err := sem.Analyze(prog)
	if err != nil {
		return err
	}
	s := l.begin("cachemodel.with_memory", -1, op)
	_, err = aggregate.New(tbl, withMem, aggregate.DefaultOptions()).Program(prog)
	l.end(s)
	if err != nil {
		return err
	}
	s = l.begin("cachemodel.without_memory", -1, op)
	_, err = aggregate.New(tbl, without, aggregate.DefaultOptions()).Program(prog)
	l.end(s)
	return err
}

// block is one straight-line innermost loop body with its enclosing
// loop variables, outermost first.
type block struct {
	body []source.Stmt
	vars []string
}

// innermostBlocks lists every loop body made only of straight-line
// statements — the blocks aggregation lowers and schedules.
func innermostBlocks(list []source.Stmt, vars []string) []block {
	var out []block
	for _, s := range list {
		switch x := s.(type) {
		case *source.DoLoop:
			inner := append(append([]string{}, vars...), x.Var)
			if straightLine(x.Body) {
				out = append(out, block{x.Body, inner})
				continue
			}
			out = append(out, innermostBlocks(x.Body, inner)...)
		case *source.IfStmt:
			out = append(out, innermostBlocks(x.Then, vars)...)
			out = append(out, innermostBlocks(x.Else, vars)...)
		}
	}
	return out
}

func straightLine(list []source.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	for _, s := range list {
		switch s.(type) {
		case *source.Assign, *source.CallStmt, *source.ContinueStmt:
		default:
			return false
		}
	}
	return true
}
