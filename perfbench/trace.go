package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one call into a layer's public function, recorded from the
// benchmark's side of the call.
type span struct {
	name       string
	start, end int64 // ns since the tracer's base
	parent     int32 // index in the same log; -1 for a root
	op         int32 // operation id the span belongs to
}

// tracer owns the span logs of one traced run. Each goroutine records
// into its own spanLog; spans stay in memory until the run ends.
type tracer struct {
	base time.Time
	mu   sync.Mutex
	logs []*spanLog
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// spanLog is one goroutine's spans. A nil *spanLog records nothing,
// which is how the untraced run calls the same code.
type spanLog struct {
	base  time.Time
	spans []span
}

// log returns a new span log for one goroutine (nil for a nil tracer).
func (t *tracer) log() *spanLog {
	if t == nil {
		return nil
	}
	l := &spanLog{base: t.base, spans: make([]span, 0, 1<<12)}
	t.mu.Lock()
	t.logs = append(t.logs, l)
	t.mu.Unlock()
	return l
}

// begin opens a span and returns its index for end and for children.
func (l *spanLog) begin(name string, parent, op int32) int32 {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{name: name, start: int64(time.Since(l.base)), end: -1, parent: parent, op: op})
	return int32(len(l.spans) - 1)
}

func (l *spanLog) end(i int32) {
	if l == nil {
		return
	}
	l.spans[i].end = int64(time.Since(l.base))
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	n         int
	total     time.Duration // summed duration
	self      time.Duration // summed duration minus child coverage
	childTime time.Duration // summed child coverage
}

func (s spanStat) meanUs() float64     { return float64(s.total) / 1e3 / float64(s.n) }
func (s spanStat) meanSelfUs() float64 { return float64(s.self) / 1e3 / float64(s.n) }
func (s spanStat) meanChildUs() float64 {
	return float64(s.childTime) / 1e3 / float64(s.n)
}

// summarize computes per-name totals. A span's self time is its
// duration minus the part of its interval covered by its children.
func (t *tracer) summarize() map[string]spanStat {
	out := map[string]spanStat{}
	for _, l := range t.logs {
		children := map[int32][][2]int64{}
		for _, s := range l.spans {
			if s.parent >= 0 {
				children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
			}
		}
		for i, s := range l.spans {
			dur := s.end - s.start
			covered := coverage(children[int32(i)])
			st := out[s.name]
			st.n++
			st.total += time.Duration(dur)
			st.self += time.Duration(dur - covered)
			st.childTime += time.Duration(covered)
			out[s.name] = st
		}
	}
	return out
}

// coverage is the length of the union of the intervals.
func coverage(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		if open && x[0] <= curHi {
			if x[1] > curHi {
				curHi = x[1]
			}
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = x[0], x[1], true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// write stores every span, one tab-separated line each: log, index,
// parent, operation, name, start ns, end ns.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for li, l := range t.logs {
		for i, s := range l.spans {
			fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%s\t%d\t%d\n", li, i, s.parent, s.op, s.name, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
