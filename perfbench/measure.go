package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"time"
)

// phaseStats is what one timed phase leaves behind, indexed by
// operation: the latency its percentiles use (negative when it could
// not be measured), its wall time, the input it ran on (for per-input
// medians), and when it ended, measured from the start of the phase.
// Concurrent clients write distinct indices.
type phaseStats struct {
	start  time.Time
	lat    []time.Duration
	wall   []time.Duration
	input  []int32
	end    []time.Duration
	failed atomic.Int64
	// moved counts operations recorded with recordThread whose
	// goroutine changed OS threads, so their latency is unknown.
	moved atomic.Int64
}

func newPhaseStats(n int) *phaseStats {
	return &phaseStats{start: time.Now(), lat: make([]time.Duration, n), wall: make([]time.Duration, n),
		input: make([]int32, n), end: make([]time.Duration, n)}
}

// record stores operation i, which began at t0 on the given input,
// with its wall time as its latency.
func (st *phaseStats) record(i, input int, t0 time.Time) {
	now := time.Now()
	st.wall[i] = now.Sub(t0)
	st.lat[i] = st.wall[i]
	st.input[i] = int32(input)
	st.end[i] = now.Sub(st.start)
}

// recordThread is record for a request that runs entirely on its
// client goroutine: its latency is the CPU time the goroutine's OS
// thread ran from c0. Linux does not charge a thread for time the host
// took its virtual CPU away (steal), so a preemption of a few
// milliseconds does not stretch it. If the Go scheduler moved the
// goroutine to another thread on the way, the two readings are of
// different clocks; the request counts as moved and is left out of the
// percentiles.
func (st *phaseStats) recordThread(i, input int, t0 time.Time, c0 threadClock) {
	cpu, ok := c0.since()
	st.record(i, input, t0)
	if !ok || cpu < 0 || cpu > st.wall[i] {
		st.moved.Add(1)
		cpu = -1
	}
	st.lat[i] = cpu
}

// fail counts a failed operation and prints the first few.
func (st *phaseStats) fail(format string, a ...any) {
	if st.failed.Add(1) <= 5 {
		fmt.Fprintf(os.Stderr, "check failed: "+format+"\n", a...)
	}
}

// blocks is how many consecutive slices of the operation sequence a
// phase is cut into; throughput and pooled latencies are the median
// over the slices, so a burst of interference from outside the process
// that covers fewer than half of them does not move them.
const blocks = 10

// numBlocks is blocks, or n when a phase has fewer operations.
func numBlocks(n int) int { return min(blocks, n) }

func blockBounds(n, b int) (lo, hi int) { return b * n / numBlocks(n), (b + 1) * n / numBlocks(n) }

// blockRates is each block's operations completed per second of wall
// time, in sequence order.
func (st *phaseStats) blockRates() []float64 {
	n := len(st.wall)
	rates := make([]float64, numBlocks(n))
	var prev time.Duration
	for b := range rates {
		lo, hi := blockBounds(n, b)
		last := max(prev, maxEnd(st.end, lo, hi))
		rates[b] = float64(hi-lo) / (last - prev).Seconds()
		prev = last
	}
	return rates
}

// opsPerSec is the median over blocks of operations per second.
func (st *phaseStats) opsPerSec() float64 {
	rates := st.blockRates()
	sort.Float64s(rates)
	return quantile(rates, 0.5)
}

func maxEnd(end []time.Duration, lo, hi int) time.Duration {
	var m time.Duration
	for _, e := range end[lo:hi] {
		m = max(m, e)
	}
	return m
}

// quantile returns the q-quantile of sorted by linear interpolation
// between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// sortedMs returns the non-negative durations in milliseconds, sorted;
// a negative duration marks one that was not measured.
func sortedMs(ds []time.Duration) []float64 {
	out := make([]float64, 0, len(ds))
	for _, d := range ds {
		if d >= 0 {
			out = append(out, float64(d)/1e6)
		}
	}
	sort.Float64s(out)
	return out
}

// pooled is the median over blocks of each block's median and p99, so
// a burst of interference that covers fewer than half of the blocks
// does not move them.
func pooled(ds []time.Duration) (p50, p99 float64) {
	var p50s, p99s []float64
	for b := 0; b < numBlocks(len(ds)); b++ {
		lo, hi := blockBounds(len(ds), b)
		ms := sortedMs(ds[lo:hi])
		p50s = append(p50s, quantile(ms, 0.5))
		p99s = append(p99s, quantile(ms, 0.99))
	}
	sort.Float64s(p50s)
	sort.Float64s(p99s)
	return quantile(p50s, 0.5), quantile(p99s, 0.5)
}

// perInput summarises each input's median over its repetitions: p50 is
// the geometric mean of the medians, and p99 their 99th percentile —
// the tail over inputs rather than over repetitions. It suits searches
// and sweeps whose inputs differ up to 10x in cost, so a pooled median
// jumps from one input to another, and whose few hundred operations
// leave no ten samples beyond a p99.
func perInput(st *phaseStats) (p50, p99 float64) {
	byInput := map[int32][]time.Duration{}
	for i, d := range st.lat {
		byInput[st.input[i]] = append(byInput[st.input[i]], d)
	}
	logSum := 0.0
	var meds []float64
	for _, ds := range byInput {
		med := quantile(sortedMs(ds), 0.5)
		logSum += math.Log(med)
		meds = append(meds, med)
	}
	sort.Float64s(meds)
	return math.Exp(logSum / float64(len(meds))), quantile(meds, 0.99)
}

// runtimeSample is a reading of the runtime counters the benchmark
// reports.
type runtimeSample struct {
	heapLive, allocs, gcCycles uint64
	gcCPU, totalCPU            float64
}

var runtimeMetricNames = []string{
	"/gc/heap/live:bytes",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		heapLive: s[0].Value.Uint64(),
		allocs:   s[1].Value.Uint64(),
		gcCycles: s[2].Value.Uint64(),
		gcCPU:    s[3].Value.Float64(),
		totalCPU: s[4].Value.Float64(),
	}
}

// phaseRuntime is the runtime's view of one timed phase.
type phaseRuntime struct {
	heapLiveMB, allocKBPerOp float64
	gcCPUShare               float64
	gcCycles                 uint64
}

// measurePhase runs fn between forced GCs, and reads the allocation,
// GC and live-heap counters around it. Two GCs in a row also drop
// what sync.Pools hold, so the live heap is the program's retained
// state.
func measurePhase(fn func() *phaseStats) (*phaseStats, phaseRuntime) {
	runtime.GC()
	runtime.GC()
	before := readRuntime()
	st := fn()
	mid := readRuntime()
	runtime.GC()
	runtime.GC()
	after := readRuntime()
	rt := phaseRuntime{
		heapLiveMB:   float64(after.heapLive) / (1 << 20),
		allocKBPerOp: float64(mid.allocs-before.allocs) / 1024 / float64(len(st.wall)),
		gcCycles:     mid.gcCycles - before.gcCycles,
	}
	// The runtime updates its CPU-class estimates at GC time, so they
	// are read after the closing GC.
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		rt.gcCPUShare = (after.gcCPU - before.gcCPU) / cpu
	}
	return st, rt
}
