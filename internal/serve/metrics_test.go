package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"perfpredict/internal/obs"
)

// scrape fetches /metrics, lint-checks the exposition, and returns
// sample lines as a map from `name{labels}` to value string.
func scrape(t *testing.T, ts *httptest.Server) map[string]string {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.Lint(data); err != nil {
		t.Fatalf("exposition not well-formed: %v\n%s", err, data)
	}
	out := map[string]string{}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		out[line[:sp]] = line[sp+1:]
	}
	return out
}

func expectSample(t *testing.T, samples map[string]string, key, want string) {
	t.Helper()
	if got, ok := samples[key]; !ok {
		t.Errorf("no sample %s", key)
	} else if got != want {
		t.Errorf("%s = %s, want %s", key, got, want)
	}
}

// TestMetricsExactCountsAfterScriptedSequence drives a fixed request
// sequence and pins the exact counter values the scrape must show:
// requests by endpoint and code, cache hit/miss deltas, zero sheds,
// zero panics, and an empty in-flight gauge.
func TestMetricsExactCountsAfterScriptedSequence(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	valid := "program p\ninteger i\nreal a(64)\ndo i = 1, 64\na(i) = a(i) + 1.0\nenddo\nend\n"

	post := func(path, body string, wantStatus int) {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("%s: status %d, want %d", path, resp.StatusCode, wantStatus)
		}
	}

	// Scripted sequence: 1 predict (miss-heavy), then the identical
	// predict again (pure hits), 2 bad-JSON 400s, 1 unknown-machine
	// 404, 1 batch 200, 1 GET 405.
	first := `{"source":` + quote(valid) + `}`
	post("/v1/predict", first, http.StatusOK)
	mid := scrape(t, ts)
	post("/v1/predict", first, http.StatusOK)
	post("/v1/predict", `{"broken`, http.StatusBadRequest)
	post("/v1/predict", `{"bro`, http.StatusBadRequest)
	post("/v1/predict", `{"source":"end","machine":"PDP11"}`, http.StatusNotFound)
	post("/v1/batch", `{"sources":[`+quote(valid)+`]}`, http.StatusOK)
	if resp, err := ts.Client().Get(ts.URL + "/v1/optimize"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET optimize: %d", resp.StatusCode)
		}
	}

	got := scrape(t, ts)
	expectSample(t, got, `predictd_requests_total{endpoint="predict",code="200"}`, "2")
	expectSample(t, got, `predictd_requests_total{endpoint="predict",code="400"}`, "2")
	expectSample(t, got, `predictd_requests_total{endpoint="predict",code="404"}`, "1")
	expectSample(t, got, `predictd_requests_total{endpoint="batch",code="200"}`, "1")
	expectSample(t, got, `predictd_requests_total{endpoint="optimize",code="405"}`, "1")
	expectSample(t, got, "predictd_in_flight", "0")
	expectSample(t, got, "predictd_panics_total", "0")

	// Latency histogram counts must equal the per-endpoint request
	// totals (every request is observed exactly once).
	expectSample(t, got, `predictd_request_seconds_count{endpoint="predict"}`, "5")
	expectSample(t, got, `predictd_request_seconds_count{endpoint="batch"}`, "1")
	expectSample(t, got, `predictd_request_seconds_count{endpoint="optimize"}`, "1")

	// Cache deltas. The first predict is a result-cache miss that
	// prices the program's segments (seg misses only). The second
	// identical predict is a result-cache hit: it never reaches the
	// library, so the segment cache is untouched. The batch carries
	// the same source but is a different request kind (BatchKey ≠
	// PredictKey), so it misses the result cache, recomputes — and
	// every segment lookup hits the warm segment cache. Net: seg
	// misses frozen at the mid-scrape value, seg hits grow by exactly
	// 1 lookup per segment priced, and the result cache shows 1 hit /
	// 2 misses (the 400s and the 404 fail before key construction).
	misses := mid["predictd_seg_cache_misses"]
	if misses == "0" {
		t.Fatal("first predict priced no segments — workload too trivial to test cache deltas")
	}
	expectSample(t, got, "predictd_seg_cache_misses", misses)
	if mid["predictd_seg_cache_hits"] != "0" {
		t.Errorf("hits after one cold predict = %s, want 0", mid["predictd_seg_cache_hits"])
	}
	wantHits := atoiMul(t, misses, 1)
	expectSample(t, got, "predictd_seg_cache_hits", wantHits)
	expectSample(t, got, "predictd_result_cache_hits", "1")
	expectSample(t, got, "predictd_result_cache_misses", "2")
	expectSample(t, got, "predictd_result_cache_entries", "2")
	expectSample(t, got, "predictd_singleflight_shared_total", "0")
	// Nothing evicts at production budgets: every priced segment is
	// still held, and predict and batch never touch the nest cache.
	expectSample(t, got, "predictd_seg_cache_entries", misses)
	expectSample(t, got, "predictd_seg_cache_evictions", "0")
	expectSample(t, got, "predictd_nest_cache_entries", "0")
	expectSample(t, got, "predictd_nest_cache_evictions", "0")
	expectSample(t, got, `predictd_front_memo_evictions{memo="program"}`, "0")
	expectSample(t, got, `predictd_front_memo_evictions{memo="target"}`, "0")
}

// TestMetricsEvictions pins the occupancy and eviction gauges on a
// server whose caches hold one entry each: three predicts of distinct
// programs on distinct machines evict from every memo layer, and no
// gauge reports more entries than its budget.
func TestMetricsEvictions(t *testing.T) {
	ts := httptest.NewServer(newServer(Config{}, budgets{seg: 1, nest: 1, programs: 1, targets: 1}).Handler())
	defer ts.Close()
	for i, m := range []string{"POWER1", "SuperScalar2", "Scalar1"} {
		src := "program p\ninteger i\nreal a(8)\ndo i = 1, 8\na(i) = a(i) * " + itoa(i+2) + ".0\nenddo\nend\n"
		post := `{"source":` + quote(src) + `,"machine":"` + m + `"}`
		resp, err := ts.Client().Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(post))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", m, resp.StatusCode)
		}
	}
	got := scrape(t, ts)
	expectSample(t, got, "predictd_seg_cache_entries", "1")
	expectSample(t, got, `predictd_front_memo_evictions{memo="program"}`, "2")
	expectSample(t, got, `predictd_front_memo_evictions{memo="target"}`, "2")
	if got["predictd_seg_cache_evictions"] == "0" {
		t.Error("a one-entry segment cache reported no evictions")
	}
	expectSample(t, got, "predictd_nest_cache_entries", "0")
	expectSample(t, got, "predictd_nest_cache_evictions", "0")
}

// TestMetricsCacheDisabled pins the escape hatch: with the result
// cache off, repeated identical predicts recompute (seg hits grow)
// and the result-cache gauges stay at zero.
func TestMetricsCacheDisabled(t *testing.T) {
	ts := httptest.NewServer(New(Config{DisableResultCache: true}).Handler())
	defer ts.Close()
	body := `{"source":"program p\ninteger i\nreal a(8)\ndo i = 1, 8\na(i) = a(i) * 2.0\nenddo\nend\n"}`
	for i := 0; i < 2; i++ {
		resp, err := ts.Client().Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
	}
	got := scrape(t, ts)
	expectSample(t, got, "predictd_result_cache_hits", "0")
	expectSample(t, got, "predictd_result_cache_misses", "0")
	expectSample(t, got, "predictd_result_cache_entries", "0")
	if got["predictd_seg_cache_hits"] == "0" {
		t.Error("second identical predict did not recompute with the result cache disabled")
	}
}

// TestMetricsFrontMemoCounts pins the front-end memo gauges over a
// scripted sequence: a first predict misses both memos, a repeat hits
// both, an unknown machine misses the target memo and never keys its
// program, and a batch of one known and one new text hits the target
// memo and splits the program lookups.
func TestMetricsFrontMemoCounts(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	src := "program p\nreal x\nx = 1.0\nend\n"
	for _, c := range []struct {
		path   string
		req    any
		status int
	}{
		{"/v1/predict", PredictRequest{Source: src}, http.StatusOK},
		{"/v1/predict", PredictRequest{Source: src}, http.StatusOK},
		{"/v1/predict", PredictRequest{Source: src, Machine: "PDP11"}, http.StatusNotFound},
		{"/v1/batch", BatchRequest{Sources: []string{src, src + "\n"}}, http.StatusOK},
	} {
		if status, body := postJSON(t, ts, c.path, c.req); status != c.status {
			t.Fatalf("%s: status %d, want %d: %s", c.path, status, c.status, body)
		}
	}
	got := scrape(t, ts)
	expectSample(t, got, `predictd_front_memo_hits{memo="program"}`, "2")
	expectSample(t, got, `predictd_front_memo_misses{memo="program"}`, "2")
	expectSample(t, got, `predictd_front_memo_hits{memo="target"}`, "2")
	expectSample(t, got, `predictd_front_memo_misses{memo="target"}`, "2")
}

// TestMetricsShedExactCount occupies the whole admission semaphore
// white-box, sends one request (deterministically shed), releases,
// and pins the shed counter and its 503.
func TestMetricsShedExactCount(t *testing.T) {
	s := New(Config{MaxInflight: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	// Fill the semaphore as if two requests were mid-flight.
	s.sem <- struct{}{}
	s.sem <- struct{}{}
	post := func(wantStatus int) {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+"/v1/predict", "application/json",
			strings.NewReader(`{"source":"program p\nreal x\nx = 1.0\nend\n"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("status %d, want %d", resp.StatusCode, wantStatus)
		}
	}
	post(http.StatusServiceUnavailable)
	post(http.StatusServiceUnavailable)
	<-s.sem
	<-s.sem
	post(http.StatusOK)

	got := scrape(t, ts)
	expectSample(t, got, `predictd_shed_total{endpoint="predict"}`, "2")
	expectSample(t, got, `predictd_requests_total{endpoint="predict",code="503"}`, "2")
	expectSample(t, got, `predictd_requests_total{endpoint="predict",code="200"}`, "1")
	expectSample(t, got, "predictd_in_flight", "0")
}

// TestMetricsPanicIsolated pins the panic middleware: a handler panic
// becomes a structured 500, increments predictd_panics_total, and the
// server keeps serving.
func TestMetricsPanicIsolated(t *testing.T) {
	s := New(Config{})
	// A poisoned route through the same middleware stack.
	s.mux.Handle("/v1/boom", s.endpoint(http.MethodPost, "boom", func(r *http.Request) (any, *apiError) {
		panic("kaboom")
	}))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := ts.Client().Post(ts.URL+"/v1/boom", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), CodeInternal) {
		t.Errorf("panic response not structured: %s", body)
	}
	got := scrape(t, ts)
	expectSample(t, got, "predictd_panics_total", "1")
	expectSample(t, got, `predictd_requests_total{endpoint="boom",code="500"}`, "1")
	// Still serving.
	status, _ := postJSON(t, ts, "/v1/predict", PredictRequest{Source: "program p\nreal x\nx = 2.0\nend\n"})
	if status != http.StatusOK {
		t.Fatalf("server down after panic: %d", status)
	}
}

// quote JSON-escapes a Go string literal body.
func quote(s string) string {
	return `"` + strings.ReplaceAll(s, "\n", `\n`) + `"`
}

// atoiMul multiplies a decimal sample by k, staying in strings.
func atoiMul(t *testing.T, s string, k int) string {
	t.Helper()
	n := 0
	for _, c := range s {
		if c < '0' || c > '9' {
			t.Fatalf("sample %q not an integer", s)
		}
		n = n*10 + int(c-'0')
	}
	return itoa(n * k)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}
