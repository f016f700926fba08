// Command perfbench is the repository benchmark. Run from the
// repository root, it runs one workload against the perfpredict
// library (or its HTTP handler, in process), checks every operation's
// output, and prints the end-to-end metrics — or, with -trace 1, the
// per-layer metrics of a traced run — as the last line of standard
// output. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// procStart is taken at package initialisation, the earliest moment
// the benchmark can observe; the first set-up is timed from here.
var procStart = time.Now()

// setupRepeats is how many times a run sets up from scratch; setup_s
// is the median.
const setupRepeats = 5

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// workload is one traffic mix. setup builds fresh state and runs the
// untimed warm pass; phase runs the fixed operation sequence (traced
// when tr is non-nil); latency summarises its latencies; replay
// re-issues, in spans, the public calls the operations make inside
// other layers; verify runs the checks that need a whole phase;
// layers fills workload-specific per-layer metrics and returns the
// reason for each it cannot measure.
type workload interface {
	setup(l *spanLog) error
	phase(tr *tracer) *phaseStats
	latency(st *phaseStats) (p50, p99 float64)
	replay(l *spanLog, c counts) error
	verify() []string
	layers(sum map[string]spanStat, c counts, m map[string]float64) map[string]string
}

func newWorkload(o options) (workload, error) {
	switch o.workload {
	case "predict-cold":
		return &predictCold{opt: o}, nil
	case "serve-mix":
		return &serveMix{opt: o}, nil
	case "optimize":
		return &optimizeWL{opt: o}, nil
	case "explore":
		return &exploreWL{opt: o}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want predict-cold, serve-mix, optimize or explore)", o.workload)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// layerMetrics lists every per-layer metric of the traced run, in
// report order, with its unit.
var layerMetrics = []struct{ name, unit string }{
	{"source.parse_us", "us"}, {"source.fingerprint_us", "us"},
	{"sem.analyze_us", "us"},
	{"lower.body_us", "us"}, {"lower.ir_ops_per_block", "count"},
	{"tetris.estimate_us", "us"}, {"tetris.ns_per_ir_op", "ns"},
	{"aggregate.program_us", "us"}, {"aggregate.seg_hit_ratio", "ratio"},
	{"aggregate.seg_entries", "count"}, {"aggregate.nest_hit_ratio", "ratio"},
	{"aggregate.nest_entries", "count"},
	{"symexpr.eval_us", "us"}, {"symexpr.string_us", "us"}, {"symexpr.cost_terms", "count"},
	{"cachemodel.memory_extra_us", "us"},
	{"machine.spec_build_us", "us"}, {"machine.expand_us", "us"},
	{"xform.nodes_per_s", "1/s"}, {"xform.apply_us", "us"}, {"xform.full_price_us", "us"},
	{"xform.nests_repriced_per_search", "count"}, {"xform.tetris_calls_per_search", "count"},
	{"explore.cells_per_s", "1/s"}, {"explore.front_size", "count"}, {"workpool.speedup", "ratio"},
	{"explain.report_us", "us"},
	{"resultcache.key_us", "us"}, {"resultcache.get_us", "us"}, {"resultcache.put_us", "us"},
	{"resultcache.hit_ratio", "ratio"}, {"resultcache.bytes", "bytes"},
	{"resultcache.evictions", "count"}, {"resultcache.singleflight_shared", "count"},
	{"serve.hit_us", "us"}, {"serve.miss_us", "us"}, {"serve.decode_us", "us"},
	{"serve.marshal_us", "us"}, {"serve.self_us", "us"},
	{"runtime.gc_cpu_share", "ratio"}, {"runtime.gc_cycles", "count"},
	{"trace.overhead_pct", "%"},
}

// spanMetrics maps per-layer timing metrics to the span whose mean
// self time they report.
var spanMetrics = map[string]string{
	"source.parse_us":       "source.parse",
	"source.fingerprint_us": "source.fingerprint",
	"sem.analyze_us":        "sem.analyze",
	"lower.body_us":         "lower.body",
	"tetris.estimate_us":    "tetris.estimate",
	"aggregate.program_us":  "aggregate.program",
	"symexpr.eval_us":       "symexpr.eval",
	"symexpr.string_us":     "symexpr.string",
	"machine.spec_build_us": "machine.spec_build",
	"machine.expand_us":     "machine.expand",
	"xform.apply_us":        "xform.apply",
	"xform.full_price_us":   "xform.full_price",
	"explain.report_us":     "explain.report",
	"resultcache.key_us":    "resultcache.key",
	"resultcache.get_us":    "resultcache.get",
	"resultcache.put_us":    "resultcache.put",
	"serve.hit_us":          "serve.hit",
	"serve.miss_us":         "serve.miss",
	"serve.decode_us":       "serve.decode",
	"serve.marshal_us":      "serve.marshal",
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "predict-cold, serve-mix, optimize or explore")
	flag.Int64Var(&o.seed, "seed", 1, "seed the inputs are generated from")
	flag.IntVar(&o.seconds, "seconds", 10, "nominal length of the timed phase; sets the operation count")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced run and prints per-layer metrics")
	flag.Parse()
	o.trace = trace != 0
	if o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be at least 1")
		os.Exit(2)
	}
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(o options, out io.Writer) (*result, error) {
	w, err := newWorkload(o)
	if err != nil {
		return nil, err
	}
	var setupTracer *tracer
	if o.trace {
		setupTracer = newTracer()
	}
	// Each set-up is timed in process CPU seconds (the first from
	// process start, when the process had run none) and in wall
	// seconds, which the run prints.
	setups := make([]float64, 0, setupRepeats)
	wallSetups := make([]float64, 0, setupRepeats)
	start, cpuStart := procStart, time.Duration(0)
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			start, cpuStart = time.Now(), processCPU()
		}
		if err := w.setup(setupTracer.log()); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, (processCPU() - cpuStart).Seconds())
		wallSetups = append(wallSetups, time.Since(start).Seconds())
	}

	st, rt := measurePhase(func() *phaseStats { return w.phase(nil) })
	res := &result{Attempted: len(st.wall), Failed: int(st.failed.Load()), Metrics: map[string]metric{}}
	fmt.Fprintf(out, "workload=%s seed=%d ops=%d set-ups cpu=%.3f wall=%.3f block ops/s=%.4g moved=%d\n",
		o.workload, o.seed, len(st.wall), setups, wallSetups, st.blockRates(), st.moved.Load())
	problems := w.verify()
	if o.trace {
		var more []string
		more, err = tracedRun(o, w, st, rt, setupTracer, res, out)
		problems = append(problems, more...)
	} else {
		err = endToEnd(w, st, rt, setups, res, out)
	}
	if err != nil {
		return nil, err
	}
	for i, p := range problems {
		if i < 10 {
			fmt.Fprintln(os.Stderr, "check failed:", p)
		}
	}
	res.Failed = min(res.Failed+len(problems), res.Attempted)
	res.Correct = res.Failed == 0
	return res, nil
}

// endToEnd fills the end-to-end metrics of an untraced run. The
// prediction-error reference runs here, outside the timed phase and
// outside set-up.
func endToEnd(w workload, st *phaseStats, rt phaseRuntime, setups []float64, res *result, out io.Writer) error {
	p50, p99 := w.latency(st)
	predErr, err := predictionError(out)
	if err != nil {
		return err
	}
	sort.Float64s(setups)
	res.Metrics = map[string]metric{
		"setup_s":         {setups[len(setups)/2], "s"},
		"ops_per_s":       {st.opsPerSec(), "1/s"},
		"latency_p50_ms":  {p50, "ms"},
		"latency_p99_ms":  {p99, "ms"},
		"heap_live_mb":    {rt.heapLiveMB, "MB"},
		"alloc_kb_per_op": {rt.allocKBPerOp, "KB"},
		"pred_error_pct":  {predErr, "%"},
	}
	return nil
}

// tracedRun sets up afresh and repeats the timed phase with spans —
// so both phases start from the same state — then replays the calls
// made inside other layers, fills the per-layer metrics and writes the
// spans out. st and rt are the untraced phase's. It returns the traced
// phase's check failures.
func tracedRun(o options, w workload, st *phaseStats, rt phaseRuntime, setupTracer *tracer, res *result, out io.Writer) ([]string, error) {
	if err := w.setup(nil); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	tr := newTracer()
	stB := w.phase(tr)
	res.Attempted += len(stB.wall)
	res.Failed += int(stB.failed.Load())
	problems := w.verify()
	c := counts{}
	if err := w.replay(tr.log(), c); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	tr.logs = append(tr.logs, setupTracer.logs...)
	m := map[string]float64{
		"runtime.gc_cpu_share": rt.gcCPUShare,
		"runtime.gc_cycles":    float64(rt.gcCycles),
		"trace.overhead_pct":   100 * (st.opsPerSec() - stB.opsPerSec()) / st.opsPerSec(),
	}
	sum := tr.summarize()
	unmeasured := w.layers(sum, c, m)
	genericLayers(sum, c, m)
	var bypassed []string
	for _, lm := range layerMetrics {
		v, ok := m[lm.name]
		if why, no := unmeasured[lm.name]; no {
			fmt.Fprintf(out, "not measured (reported as 0): %s: %s\n", lm.name, why)
			ok = false
		} else if !ok {
			bypassed = append(bypassed, lm.name)
		}
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[lm.name] = metric{v, lm.unit}
	}
	fmt.Fprintf(out, "not reached by %s's operations (reported as 0): %v\n", o.workload, bypassed)
	path := filepath.Join(".bench_build", "spans-"+o.workload+".tsv")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	if err := tr.write(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(out, "spans written to %s\n", path)
	return problems, nil
}

// genericLayers fills the per-layer metrics every workload derives
// the same way from spans and counters, unless the workload set them.
func genericLayers(sum map[string]spanStat, c counts, m map[string]float64) {
	set := func(name string, v float64) {
		if _, ok := m[name]; !ok {
			m[name] = v
		}
	}
	for name, sp := range spanMetrics {
		if s, ok := sum[sp]; ok && s.n > 0 {
			set(name, s.meanSelfUs())
		}
	}
	if c["lower.blocks"] > 0 {
		set("lower.ir_ops_per_block", c.ratio("lower.ir_ops", "lower.blocks"))
		set("tetris.ns_per_ir_op", float64(sum["tetris.estimate"].total)/c["lower.ir_ops"])
	}
	if c["aggregate.seg_lookups"] > 0 {
		set("aggregate.seg_hit_ratio", c.ratio("aggregate.seg_hits", "aggregate.seg_lookups"))
	}
	if c["symexpr.costs"] > 0 {
		set("symexpr.cost_terms", c.ratio("symexpr.terms", "symexpr.costs"))
	}
	with, without := sum["cachemodel.with_memory"], sum["cachemodel.without_memory"]
	if with.n > 0 && without.n > 0 {
		set("cachemodel.memory_extra_us", with.meanUs()-without.meanUs())
	}
}
