// Package obs is a dependency-free observability kit for the
// prediction service: counters, latency histograms and gauge
// functions, exposed in the Prometheus text exposition format
// (version 0.0.4) over a plain http.Handler. No client library is
// vendored — the format is a handful of lines per metric and scraping
// it is the whole contract.
//
// The kit is deliberately small: integer counters (every event we
// count is discrete), cumulative-bucket histograms for latencies, and
// pull-style gauges that re-read existing atomic statistics (cache
// hit/miss totals, in-flight request counts) at scrape time instead
// of mirroring them into a second counter that could drift.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds metric families and renders them in registration
// order. All methods are safe for concurrent use; registration
// usually happens once at startup and scrapes/updates happen forever
// after.
type Registry struct {
	mu       sync.Mutex
	families []renderer
	names    map[string]bool
}

// renderer is one family's contribution to the exposition.
type renderer interface {
	render(w io.Writer)
}

// NewRegistry creates an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{names: map[string]bool{}}
}

func (r *Registry) register(name string, f renderer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[name] {
		panic("obs: duplicate metric " + name)
	}
	r.names[name] = true
	r.families = append(r.families, f)
}

// Counter registers a counter family with the given label dimensions
// (possibly none).
func (r *Registry) Counter(name, help string, labelNames ...string) *CounterVec {
	c := &CounterVec{name: name, help: help, labels: labelNames}
	r.register(name, c)
	return c
}

// Histogram registers a histogram family over the given cumulative
// bucket upper bounds (ascending; the +Inf bucket is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	if !sort.Float64sAreSorted(buckets) {
		panic("obs: histogram buckets must ascend: " + name)
	}
	h := &HistogramVec{name: name, help: help, labels: labelNames, buckets: buckets}
	r.register(name, h)
	return h
}

// GaugeFunc registers a gauge whose value is computed at scrape time
// — the hook for re-exporting statistics something else already
// maintains atomically.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, &gaugeFunc{name: name, help: help, fn: fn})
}

// GaugeFuncVec registers a gauge family over one label dimension
// whose children, one per given label value, are computed at scrape
// time by fn(value) and rendered in the given order.
func (r *Registry) GaugeFuncVec(name, help, label string, values []string, fn func(value string) float64) {
	r.register(name, &gaugeFuncVec{name: name, help: help, label: label, values: values, fn: fn})
}

// WritePrometheus renders every registered family in the text
// exposition format.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	fams := append([]renderer(nil), r.families...)
	r.mu.Unlock()
	for _, f := range fams {
		f.render(w)
	}
}

// Handler serves WritePrometheus — mount it at /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// CounterVec is a family of monotonically increasing integer counters
// keyed by label values.
type CounterVec struct {
	name   string
	help   string
	labels []string

	mu       sync.Mutex
	children map[string]*Counter
	order    []string
}

// With returns the counter for the given label values, creating it at
// zero on first use. The value count must match the registered label
// names.
func (v *CounterVec) With(values ...string) *Counter {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: %s wants %d labels, got %d", v.name, len(v.labels), len(values)))
	}
	key := labelKey(v.labels, values)
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.children == nil {
		v.children = map[string]*Counter{}
	}
	c, ok := v.children[key]
	if !ok {
		c = &Counter{}
		v.children[key] = c
		v.order = append(v.order, key)
	}
	return c
}

func (v *CounterVec) render(w io.Writer) {
	v.mu.Lock()
	keys := append([]string(nil), v.order...)
	children := make([]*Counter, len(keys))
	for i, k := range keys {
		children[i] = v.children[k]
	}
	v.mu.Unlock()
	sort.Sort(&byKey{keys, func(i, j int) { children[i], children[j] = children[j], children[i] }})
	header(w, v.name, v.help, "counter")
	if len(keys) == 0 && len(v.labels) == 0 {
		// An unlabeled counter exists as soon as it is registered.
		fmt.Fprintf(w, "%s 0\n", v.name)
		return
	}
	for i, k := range keys {
		fmt.Fprintf(w, "%s%s %d\n", v.name, k, children[i].Value())
	}
}

// Counter is one monotonically increasing integer.
type Counter struct{ n atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds d (must be >= 0 for the exposition to stay a counter).
func (c *Counter) Add(d int64) { c.n.Add(d) }

// Value reads the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// HistogramVec is a family of cumulative-bucket histograms keyed by
// label values.
type HistogramVec struct {
	name    string
	help    string
	labels  []string
	buckets []float64

	mu       sync.Mutex
	children map[string]*Histogram
	order    []string
}

// With returns the histogram for the given label values, creating it
// empty on first use.
func (v *HistogramVec) With(values ...string) *Histogram {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: %s wants %d labels, got %d", v.name, len(v.labels), len(values)))
	}
	key := labelKey(v.labels, values)
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.children == nil {
		v.children = map[string]*Histogram{}
	}
	h, ok := v.children[key]
	if !ok {
		h = &Histogram{buckets: v.buckets, counts: make([]atomic.Int64, len(v.buckets)+1)}
		v.children[key] = h
		v.order = append(v.order, key)
	}
	return h
}

func (v *HistogramVec) render(w io.Writer) {
	v.mu.Lock()
	keys := append([]string(nil), v.order...)
	children := make([]*Histogram, len(keys))
	for i, k := range keys {
		children[i] = v.children[k]
	}
	v.mu.Unlock()
	sort.Sort(&byKey{keys, func(i, j int) { children[i], children[j] = children[j], children[i] }})
	header(w, v.name, v.help, "histogram")
	for i, k := range keys {
		children[i].render(w, v.name, k)
	}
}

// Histogram is one cumulative-bucket latency distribution.
type Histogram struct {
	buckets []float64
	counts  []atomic.Int64 // per-bucket increments; last is +Inf
	sumBits atomic.Uint64  // float64 bits of the running sum
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.buckets, v) // first bucket with bound >= v
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count reads the total number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

func (h *Histogram) render(w io.Writer, name, key string) {
	var cum int64
	for i, b := range h.buckets {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, mergeLabel(key, "le", formatFloat(b)), cum)
	}
	cum += h.counts[len(h.buckets)].Load()
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, mergeLabel(key, "le", "+Inf"), cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, key, formatFloat(math.Float64frombits(h.sumBits.Load())))
	fmt.Fprintf(w, "%s_count%s %d\n", name, key, cum)
}

// gaugeFunc is a pull-style gauge.
type gaugeFunc struct {
	name string
	help string
	fn   func() float64
}

func (g *gaugeFunc) render(w io.Writer) {
	header(w, g.name, g.help, "gauge")
	fmt.Fprintf(w, "%s %s\n", g.name, formatFloat(g.fn()))
}

// gaugeFuncVec is a pull-style gauge family with one label.
type gaugeFuncVec struct {
	name   string
	help   string
	label  string
	values []string
	fn     func(value string) float64
}

func (g *gaugeFuncVec) render(w io.Writer) {
	header(w, g.name, g.help, "gauge")
	for _, v := range g.values {
		fmt.Fprintf(w, "%s%s %s\n", g.name, mergeLabel("", g.label, v), formatFloat(g.fn(v)))
	}
}

// labelKey renders `{a="x",b="y"}` (or "" for no labels) — both the
// child-map key and the exposition fragment.
func labelKey(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	// Sized up front: the key is built on every labelled update.
	size := 1
	for i, n := range names {
		size += len(n) + len(values[i]) + 4
	}
	var b strings.Builder
	b.Grow(size)
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// mergeLabel appends one more label pair to a rendered label set.
func mergeLabel(key, name, value string) string {
	pair := name + `="` + escapeLabel(value) + `"`
	if key == "" {
		return "{" + pair + "}"
	}
	return key[:len(key)-1] + "," + pair + "}"
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func header(w io.Writer, name, help, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
}

// byKey sorts keys and mirrors every swap into a sibling slice, so a
// family's children render in stable sorted-label order regardless of
// first-use order.
type byKey struct {
	keys []string
	swap func(i, j int)
}

func (s *byKey) Len() int           { return len(s.keys) }
func (s *byKey) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *byKey) Swap(i, j int) {
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
	s.swap(i, j)
}
