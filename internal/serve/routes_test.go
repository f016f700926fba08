package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestRouteContract pins the middleware contract on every row of the
// route table: a wrong method is 405 with Allow: POST, an oversized
// body 413, an unknown field or trailing data 400 bad_json, a full
// admission semaphore 503 with Retry-After: 1, and each of those
// answers is counted exactly once under the row's endpoint label.
func TestRouteContract(t *testing.T) {
	s := New(Config{MaxInflight: 1, MaxBodyBytes: 256})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	send := func(method, path, body string) (*http.Response, ErrorResponse) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		var er ErrorResponse
		if err := json.Unmarshal(data, &er); err != nil {
			t.Fatalf("%s %s: unstructured error body: %s", method, path, data)
		}
		return resp, er
	}
	expect := func(rt route, what string, resp *http.Response, er ErrorResponse, status int, code string) {
		t.Helper()
		if resp.StatusCode != status || er.Error.Code != code {
			t.Errorf("%s %s: %d %q, want %d %q", rt.path, what, resp.StatusCode, er.Error.Code, status, code)
		}
	}

	for _, rt := range s.routes() {
		resp, er := send(http.MethodGet, rt.path, "")
		expect(rt, "GET", resp, er, http.StatusMethodNotAllowed, CodeMethodNotAllowed)
		if got := resp.Header.Get("Allow"); got != http.MethodPost {
			t.Errorf("%s GET: Allow %q, want POST", rt.path, got)
		}

		resp, er = send(http.MethodPost, rt.path, `{"source":"`+strings.Repeat("x", 300)+`"}`)
		expect(rt, "oversized body", resp, er, http.StatusRequestEntityTooLarge, CodeBodyTooLarge)

		resp, er = send(http.MethodPost, rt.path, `{"no_such_field":1}`)
		expect(rt, "unknown field", resp, er, http.StatusBadRequest, CodeBadJSON)

		resp, er = send(http.MethodPost, rt.path, `{} {}`)
		expect(rt, "trailing data", resp, er, http.StatusBadRequest, CodeBadJSON)

		s.sem <- struct{}{} // fill admission white-box
		resp, er = send(http.MethodPost, rt.path, `{}`)
		<-s.sem
		expect(rt, "shed", resp, er, http.StatusServiceUnavailable, CodeOverloaded)
		if got := resp.Header.Get("Retry-After"); got != "1" {
			t.Errorf("%s shed: Retry-After %q, want 1", rt.path, got)
		}
	}

	got := scrape(t, ts)
	for _, rt := range s.routes() {
		label := `{endpoint="` + rt.name + `"`
		expectSample(t, got, `predictd_requests_total`+label+`,code="405"}`, "1")
		expectSample(t, got, `predictd_requests_total`+label+`,code="413"}`, "1")
		expectSample(t, got, `predictd_requests_total`+label+`,code="400"}`, "2")
		expectSample(t, got, `predictd_requests_total`+label+`,code="503"}`, "1")
		expectSample(t, got, `predictd_shed_total`+label+`}`, "1")
		expectSample(t, got, `predictd_request_seconds_count`+label+`}`, "5")
	}
}
