package obs

import (
	"bytes"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func render(r *Registry) string {
	var b bytes.Buffer
	r.WritePrometheus(&b)
	return b.String()
}

func TestCounterExposition(t *testing.T) {
	r := NewRegistry()
	reqs := r.Counter("requests_total", "Requests by endpoint and code.", "endpoint", "code")
	reqs.With("predict", "200").Add(3)
	reqs.With("batch", "400").Inc()
	reqs.With("predict", "200").Inc()

	got := render(r)
	want := strings.Join([]string{
		"# HELP requests_total Requests by endpoint and code.",
		"# TYPE requests_total counter",
		`requests_total{endpoint="batch",code="400"} 1`,
		`requests_total{endpoint="predict",code="200"} 4`,
		"",
	}, "\n")
	if got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}
	if err := Lint([]byte(got)); err != nil {
		t.Errorf("lint: %v", err)
	}
}

func TestUnlabeledCounterRendersAtZero(t *testing.T) {
	r := NewRegistry()
	r.Counter("panics_total", "Recovered handler panics.")
	got := render(r)
	if !strings.Contains(got, "panics_total 0\n") {
		t.Errorf("zero unlabeled counter missing:\n%s", got)
	}
	if err := Lint([]byte(got)); err != nil {
		t.Errorf("lint: %v", err)
	}
}

func TestHistogramBucketsCumulative(t *testing.T) {
	r := NewRegistry()
	lat := r.Histogram("latency_seconds", "Latency.", []float64{0.01, 0.1, 1}, "endpoint")
	h := lat.With("predict")
	for _, v := range []float64{0.005, 0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	got := render(r)
	for _, line := range []string{
		`latency_seconds_bucket{endpoint="predict",le="0.01"} 2`,
		`latency_seconds_bucket{endpoint="predict",le="0.1"} 3`,
		`latency_seconds_bucket{endpoint="predict",le="1"} 4`,
		`latency_seconds_bucket{endpoint="predict",le="+Inf"} 5`,
		`latency_seconds_sum{endpoint="predict"} 5.5600000000000005`,
		`latency_seconds_count{endpoint="predict"} 5`,
	} {
		if !strings.Contains(got, line+"\n") {
			t.Errorf("missing %q in:\n%s", line, got)
		}
	}
	if h.Count() != 5 {
		t.Errorf("Count = %d, want 5", h.Count())
	}
	if err := Lint([]byte(got)); err != nil {
		t.Errorf("lint: %v", err)
	}
}

func TestHistogramBoundaryGoesToItsBucket(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "h.", []float64{1}).With()
	h.Observe(1) // le="1" is inclusive
	got := render(r)
	if !strings.Contains(got, `h_bucket{le="1"} 1`) {
		t.Errorf("boundary observation not in its bucket:\n%s", got)
	}
}

func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	v := 41.0
	r.GaugeFunc("cache_hits", "Hits.", func() float64 { v++; return v })
	if got := render(r); !strings.Contains(got, "cache_hits 42\n") {
		t.Errorf("first scrape:\n%s", got)
	}
	if got := render(r); !strings.Contains(got, "cache_hits 43\n") {
		t.Errorf("gauge not re-read at scrape time:\n%s", got)
	}
}

func TestGaugeFuncVec(t *testing.T) {
	r := NewRegistry()
	vals := map[string]float64{"program": 3, "target": 1}
	r.GaugeFuncVec("memo_hits", "Hits.", "memo", []string{"program", "target"},
		func(m string) float64 { return vals[m] })
	got := render(r)
	want := "# TYPE memo_hits gauge\nmemo_hits{memo=\"program\"} 3\nmemo_hits{memo=\"target\"} 1\n"
	if !strings.Contains(got, want) {
		t.Errorf("got:\n%s\nwant:\n%s", got, want)
	}
	if err := Lint([]byte(got)); err != nil {
		t.Error(err)
	}
	vals["target"] = 5
	if got := render(r); !strings.Contains(got, "memo_hits{memo=\"target\"} 5\n") {
		t.Errorf("gauge not re-read at scrape time:\n%s", got)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("weird", "w.", "path")
	c.With("a\"b\\c\nd").Inc()
	got := render(r)
	want := `weird{path="a\"b\\c\nd"} 1`
	if !strings.Contains(got, want+"\n") {
		t.Errorf("got:\n%s\nwant line %q", got, want)
	}
	if err := Lint([]byte(got)); err != nil {
		t.Errorf("lint: %v", err)
	}
}

func TestHandlerContentType(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "x.").With()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type %q", ct)
	}
	if err := Lint(rec.Body.Bytes()); err != nil {
		t.Errorf("lint: %v", err)
	}
}

func TestConcurrentObserveAndScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "c.", "k")
	h := r.Histogram("h_seconds", "h.", []float64{0.5}, "k")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.With("a").Inc()
				h.With("a").Observe(0.25)
				if i%100 == 0 {
					render(r)
				}
			}
		}()
	}
	wg.Wait()
	if c.With("a").Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.With("a").Value())
	}
	if h.With("a").Count() != 8000 {
		t.Errorf("histogram count = %d, want 8000", h.With("a").Count())
	}
	sum := math.Round(8000 * 0.25)
	if got := render(r); !strings.Contains(got, `h_seconds_sum{k="a"} 2000`) {
		t.Errorf("sum != %v:\n%s", sum, got)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on duplicate metric name")
		}
	}()
	r := NewRegistry()
	r.Counter("dup", "d.")
	r.Counter("dup", "d.")
}

func TestLintRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"no TYPE":        "orphan 1\n",
		"bad comment":    "# HLEP x y\n",
		"bad sample":     "# TYPE x counter\nx{oops} 1\n",
		"bad value":      "# TYPE x counter\nx 1.2.3\n",
		"duplicate TYPE": "# TYPE x counter\n# TYPE x counter\n",
		"unknown type":   "# TYPE x countr\n",
	}
	for name, in := range cases {
		if Lint([]byte(in)) == nil {
			t.Errorf("%s: lint accepted %q", name, in)
		}
	}
}
