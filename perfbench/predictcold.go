package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"perfpredict"
	"perfpredict/internal/aggregate"
	"perfpredict/internal/kernels"
)

// predictColdRate is the nominal operations per second of
// predict-cold; a run does -seconds times this many operations,
// rounded to whole passes over the inputs.
const predictColdRate = 3000

// predictCold is the compile-time path: one operation is one
// PredictCtx with no shared cache, then EvalAt and the rendering of
// the cost, on one goroutine.
type predictCold struct {
	opt    options
	inputs []pcInput
	order  []int32
}

type pcInput struct {
	name   string
	src    string
	target *perfpredict.Target
	// mem marks a target with a memory hierarchy, where the operation
	// also renders Cost − Memory.
	mem  bool
	args map[string]float64
	// wantCost/wantInCore/wantEval are reference outputs from the
	// goldens and the verify values ("" or NaN when there is none);
	// refCost/refEval are the warm pass's outputs, which every later
	// operation on the input must repeat.
	wantCost, wantInCore string
	wantEval             float64
	refCost              string
	refEval              float64
}

type pcOut struct {
	cost, inCore string
	eval         float64
}

// latency: p50 is pooled over all operations; p99 is the tail over
// inputs of each input's median. Every input runs about a hundred
// times, so a GC cycle or preemption that stretches a few operations
// moves no input's median, while a pooled p99 of a 0.3 ms operation is
// decided by exactly such events.
func (w *predictCold) latency(st *phaseStats) (p50, p99 float64) {
	p50, _ = pooled(st.lat)
	_, p99 = perInput(st)
	return p50, p99
}

func (w *predictCold) setup(l *spanLog) error {
	corpus, err := loadCorpus()
	if err != nil {
		return err
	}
	targets, err := goldenTargets(l)
	if err != nil {
		return err
	}
	p1mem, _, err := loadSpec(l, power1memPath)
	if err != nil {
		return err
	}
	w.inputs = w.inputs[:0]
	for _, c := range corpus {
		for _, t := range targets {
			w.inputs = append(w.inputs, pcInput{name: c.name + "@" + t.name, src: c.src, target: t.m,
				wantCost: c.golden[t.name], wantEval: math.NaN()})
		}
		w.inputs = append(w.inputs, pcInput{name: c.name + "@POWER1-MEM", src: c.src, target: p1mem, mem: true,
			wantInCore: c.golden["POWER1"], wantEval: math.NaN()})
	}
	verified := map[string]pcInput{
		"daxpy@POWER1":  {wantCost: "3.5·n + 5", wantEval: math.NaN()},
		"jacobi@POWER1": {wantEval: 26019},
		"matmul@POWER1": {wantEval: 96552},
	}
	for _, k := range kernels.All() {
		for _, t := range targets[:3] {
			if t.name == "Scalar1" {
				continue
			}
			in := pcInput{name: k.Name + "@" + t.name, src: k.Src, target: t.m, args: k.Args, wantEval: math.NaN()}
			if v, ok := verified[in.name]; ok {
				in.wantCost, in.wantEval = v.wantCost, v.wantEval
			}
			w.inputs = append(w.inputs, in)
		}
	}

	// Warm pass: price every input once, fix each corpus program's
	// evaluation point, and keep the outputs later operations repeat.
	for i := range w.inputs {
		in := &w.inputs[i]
		if in.args == nil {
			p, err := perfpredict.Predict(in.src, in.target)
			if err != nil {
				return fmt.Errorf("%s: %w", in.name, err)
			}
			in.args = map[string]float64{}
			for _, u := range p.Unknowns {
				if u.Kind != "probability" {
					in.args[u.Name] = 64
				}
			}
		}
		out, err := w.op(nil, -1, in)
		if err != nil {
			return fmt.Errorf("%s: %w", in.name, err)
		}
		in.refCost, in.refEval = out.cost, out.eval
	}

	r := rand.New(rand.NewSource(w.opt.seed))
	passes := max(1, int(math.Round(float64(w.opt.seconds*predictColdRate)/float64(len(w.inputs)))))
	w.order = w.order[:0]
	for p := 0; p < passes; p++ {
		for _, i := range r.Perm(len(w.inputs)) {
			w.order = append(w.order, int32(i))
		}
	}
	return nil
}

// op is one operation: PredictCtx, EvalAt and rendering.
func (w *predictCold) op(l *spanLog, id int32, in *pcInput) (pcOut, error) {
	root := l.begin("op", -1, id)
	defer l.end(root)
	s := l.begin("perfpredict.PredictCtx", root, id)
	pred, err := perfpredict.PredictCtx(context.Background(), in.src, in.target, perfpredict.PredictOptions{})
	l.end(s)
	if err != nil {
		return pcOut{}, err
	}
	var out pcOut
	s = l.begin("symexpr.eval", root, id)
	out.eval, err = pred.EvalAt(in.args)
	l.end(s)
	if err != nil {
		return pcOut{}, err
	}
	s = l.begin("symexpr.string", root, id)
	out.cost = pred.Cost.String()
	if in.mem {
		out.inCore = pred.Cost.Sub(pred.Memory).String()
	}
	l.end(s)
	return out, nil
}

func (w *predictCold) check(in *pcInput, out pcOut) error {
	switch {
	case in.wantCost != "" && out.cost != in.wantCost:
		return fmt.Errorf("cost %q, golden %q", out.cost, in.wantCost)
	case in.mem && out.inCore != in.wantInCore:
		return fmt.Errorf("cost − memory %q, POWER1 golden %q", out.inCore, in.wantInCore)
	case !math.IsNaN(in.wantEval) && out.eval != in.wantEval:
		return fmt.Errorf("eval %v, want %v", out.eval, in.wantEval)
	case out.cost != in.refCost || out.eval != in.refEval:
		return fmt.Errorf("output %q=%v differs from the warm pass %q=%v", out.cost, out.eval, in.refCost, in.refEval)
	}
	return nil
}

func (w *predictCold) phase(tr *tracer) *phaseStats {
	st := newPhaseStats(len(w.order))
	l := tr.log()
	for i, idx := range w.order {
		in := &w.inputs[idx]
		t0 := time.Now()
		out, err := w.op(l, int32(i), in)
		st.record(i, int(idx), t0)
		if err == nil {
			err = w.check(in, out)
		}
		if err != nil {
			st.fail("predict-cold %s: %v", in.name, err)
		}
	}
	return st
}

// replay prices each distinct input once more, layer by layer.
func (w *predictCold) replay(l *spanLog, c counts) error {
	for i := range w.inputs {
		in := &w.inputs[i]
		seg := aggregate.NewSegCache()
		if _, err := replayProgram(l, c, int32(i), in.src, in.target, seg); err != nil {
			return fmt.Errorf("%s: %w", in.name, err)
		}
		c["aggregate.seg_entries"] += float64(seg.Len())
		c["predictions"]++
		if in.mem {
			if err := replayMemoryExtra(l, int32(i), in.src, in.target, perfpredict.POWER1()); err != nil {
				return fmt.Errorf("%s: %w", in.name, err)
			}
		}
	}
	return nil
}

func (w *predictCold) verify() []string { return nil }

func (w *predictCold) layers(sum map[string]spanStat, c counts, m map[string]float64) map[string]string {
	// Each prediction prices through its own fresh segment cache.
	m["aggregate.seg_entries"] = c.ratio("aggregate.seg_entries", "predictions")
	return nil
}
