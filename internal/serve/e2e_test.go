package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"perfpredict"
	"perfpredict/internal/source"
)

// corpusDir points at the PR 4 differential-fuzzing corpus, the
// golden program set the e2e suite prices through the server.
var corpusDir = filepath.Join("..", "..", "testdata", "corpus")

// corpusSources loads every corpus program, sorted by filename.
func corpusSources(t *testing.T) (names []string, srcs []string) {
	t.Helper()
	ents, err := os.ReadDir(filepath.Join(corpusDir, "programs"))
	if err != nil {
		t.Fatalf("corpus: %v", err)
	}
	for _, e := range ents {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	for _, n := range names {
		data, err := os.ReadFile(filepath.Join(corpusDir, "programs", n))
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, string(data))
	}
	return names, srcs
}

// tryPostJSON posts v and returns the status and raw body bytes; it
// is goroutine-safe (no testing.T), for concurrent drivers.
func tryPostJSON(ts *httptest.Server, path string, v any) (int, []byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return 0, nil, err
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, out, nil
}

// postJSON posts v and returns the status and raw body bytes.
func postJSON(t *testing.T, ts *httptest.Server, path string, v any) (int, []byte) {
	t.Helper()
	status, out, err := tryPostJSON(ts, path, v)
	if err != nil {
		t.Fatal(err)
	}
	return status, out
}

// TestE2EPredictEqualsLibrary proves the server ≡ library contract on
// the whole corpus: for every corpus program on every builtin
// machine, the /v1/predict response bytes equal the same response
// structure built from a direct perfpredict.Predict call and passed
// through the server's own encoder.
func TestE2EPredictEqualsLibrary(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	names, srcs := corpusSources(t)
	args := map[string]float64{"n": 100, "m": 17}
	for _, machineName := range perfpredict.TargetNames() {
		target, err := perfpredict.LoadTarget(machineName)
		if err != nil {
			t.Fatal(err)
		}
		for i, src := range srcs {
			status, got := postJSON(t, ts, "/v1/predict", PredictRequest{
				Source: src, Machine: machineName, Args: args,
			})
			if status != http.StatusOK {
				t.Fatalf("%s on %s: status %d: %s", names[i], machineName, status, got)
			}
			pred, err := perfpredict.Predict(src, target)
			if err != nil {
				t.Fatalf("%s on %s: library: %v", names[i], machineName, err)
			}
			wantResp, aerr := buildPredictResponse(pred, target.Name, args)
			if aerr != nil {
				t.Fatalf("%s on %s: library response: %v", names[i], machineName, aerr.msg)
			}
			if want := marshalBody(wantResp); !bytes.Equal(got, want) {
				t.Errorf("%s on %s:\nserver  %s\nlibrary %s", names[i], machineName, got, want)
			}
		}
	}
}

// TestE2EDeclaredTypesDoNotLeakAcrossRequests: one loop over real
// arrays, then the same loop over integer arrays, through /v1/predict
// and /v1/batch on one server. The server's warm segment cache must
// not hand the integer program the real program's segment prices;
// each body must equal a fresh library prediction.
func TestE2EDeclaredTypesDoNotLeakAcrossRequests(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	target, err := perfpredict.LoadTarget("POWER1")
	if err != nil {
		t.Fatal(err)
	}
	const loop = "\n  do i = 1, n\n    x(i) = x(i) * y(i) + x(i)\n  end do\nend\n"
	realSrc := "program p\n  integer i, n\n  real x(100), y(100)" + loop
	intSrc := "program p\n  integer i, n\n  integer x(100), y(100)" + loop
	for _, src := range []string{realSrc, intSrc} {
		status, got := postJSON(t, ts, "/v1/predict", PredictRequest{Source: src})
		if status != http.StatusOK {
			t.Fatalf("predict status %d: %s", status, got)
		}
		pred, err := perfpredict.Predict(src, target)
		if err != nil {
			t.Fatal(err)
		}
		wantResp, aerr := buildPredictResponse(pred, target.Name, nil)
		if aerr != nil {
			t.Fatal(aerr.msg)
		}
		if want := marshalBody(wantResp); !bytes.Equal(got, want) {
			t.Errorf("predict after a differently typed twin:\nserver  %s\nlibrary %s", got, want)
		}
	}
	// A batch of both programs is a new result-cache key, so it prices
	// again through the now warm segment cache.
	srcs := []string{intSrc, realSrc}
	status, got := postJSON(t, ts, "/v1/batch", BatchRequest{Sources: srcs})
	if status != http.StatusOK {
		t.Fatalf("batch status %d: %s", status, got)
	}
	want := BatchResponse{Machine: target.Name, Results: make([]BatchItem, len(srcs))}
	for i, src := range srcs {
		pred, err := perfpredict.Predict(src, target)
		if err != nil {
			t.Fatal(err)
		}
		item, aerr := buildBatchItem(pred, nil)
		if aerr != nil {
			t.Fatal(aerr.msg)
		}
		want.Results[i] = item
	}
	if wantBytes := marshalBody(want); !bytes.Equal(got, wantBytes) {
		t.Errorf("batch after differently typed twins:\nserver  %s\nlibrary %s", got, wantBytes)
	}
}

// TestE2EBatchEqualsLibrary prices the whole corpus in one /v1/batch
// request and byte-compares against PredictBatch.
func TestE2EBatchEqualsLibrary(t *testing.T) {
	ts := httptest.NewServer(New(Config{MaxBodyBytes: 1 << 22}).Handler())
	defer ts.Close()
	names, srcs := corpusSources(t)
	status, got := postJSON(t, ts, "/v1/batch", BatchRequest{Sources: srcs, Machine: "SuperScalar2"})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, got)
	}
	target, err := perfpredict.LoadTarget("SuperScalar2")
	if err != nil {
		t.Fatal(err)
	}
	preds, errs := perfpredict.PredictBatch(srcs, target, perfpredict.BatchOptions{})
	want := BatchResponse{Machine: target.Name, Results: make([]BatchItem, len(srcs))}
	for i := range preds {
		if errs[i] != nil {
			t.Fatalf("%s: library: %v", names[i], errs[i])
		}
		item, aerr := buildBatchItem(preds[i], nil)
		if aerr != nil {
			t.Fatal(aerr.msg)
		}
		want.Results[i] = item
	}
	if wantBytes := marshalBody(want); !bytes.Equal(got, wantBytes) {
		t.Errorf("batch response diverges from library:\nserver  %.2000s\nlibrary %.2000s", got, wantBytes)
	}
}

// TestE2EOptimizeEqualsLibrary runs the bounded transformation search
// through the server (warm shared caches) and the library (fresh
// caches) on every corpus program that has a loop to transform; the
// response bytes must match — predictions and search trajectories
// never depend on cache state.
func TestE2EOptimizeEqualsLibrary(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	names, srcs := corpusSources(t)
	nominal := map[string]float64{"n": 40, "m": 17}
	tested := 0
	for i, src := range srcs {
		if !strings.Contains(src, "do ") {
			continue
		}
		if tested++; tested > 5 {
			break
		}
		req := OptimizeRequest{Source: src, Nominal: nominal, MaxNodes: 4, MaxDepth: 2}
		status, got := postJSON(t, ts, "/v1/optimize", req)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", names[i], status, got)
		}
		target, err := perfpredict.LoadTarget("POWER1")
		if err != nil {
			t.Fatal(err)
		}
		res, err := perfpredict.OptimizeCtx(context.Background(), src, target, nominal,
			perfpredict.OptimizeOptions{MaxNodes: 4, MaxDepth: 2})
		if err != nil {
			t.Fatalf("%s: library: %v", names[i], err)
		}
		want := marshalBody(OptimizeResponse{
			Machine:         target.Name,
			Source:          res.Source,
			Transformations: res.Transformations,
			PredictedBefore: res.PredictedBefore,
			PredictedAfter:  res.PredictedAfter,
			MemoryBefore:    res.MemoryBefore,
			MemoryAfter:     res.MemoryAfter,
			Explored:        res.Explored,
		})
		if !bytes.Equal(got, want) {
			t.Errorf("%s:\nserver  %s\nlibrary %s", names[i], got, want)
		}
	}
	if tested == 0 {
		t.Fatal("no corpus program had a loop to optimize")
	}
}

// TestE2EInlineSpecEqualsSpecFile uploads a corpus machine spec
// inline and checks the prediction matches loading the same spec from
// disk through the library.
func TestE2EInlineSpecEqualsSpecFile(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	specPath := filepath.Join(corpusDir, "specs", "spec01.json")
	specData, err := os.ReadFile(specPath)
	if err != nil {
		t.Fatal(err)
	}
	_, srcs := corpusSources(t)
	src := srcs[0]
	status, got := postJSON(t, ts, "/v1/predict", PredictRequest{Source: src, Spec: specData})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, got)
	}
	target, err := perfpredict.LoadTarget(specPath)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := perfpredict.Predict(src, target)
	if err != nil {
		t.Fatal(err)
	}
	wantResp, aerr := buildPredictResponse(pred, target.Name, nil)
	if aerr != nil {
		t.Fatal(aerr.msg)
	}
	if want := marshalBody(wantResp); !bytes.Equal(got, want) {
		t.Errorf("inline spec:\nserver  %s\nlibrary %s", got, want)
	}
}

// TestE2EErrorPaths pins every structured error: status code, stable
// error code, and that the body is exactly an ErrorResponse.
func TestE2EErrorPaths(t *testing.T) {
	ts := httptest.NewServer(New(Config{MaxBodyBytes: 512}).Handler())
	defer ts.Close()
	// symbolic has an unanalyzable bound n, so evaluating without a
	// value for n is a usable-args error.
	symbolic := `program p
integer i, n
real a(100)
do i = 1, n
a(i) = 1.0
enddo
end
`
	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantCode   string
	}{
		{"bad json", "POST", "/v1/predict", `{"source": `, http.StatusBadRequest, CodeBadJSON},
		{"unknown field", "POST", "/v1/predict", `{"sauce":"x"}`, http.StatusBadRequest, CodeBadJSON},
		{"trailing data", "POST", "/v1/predict", `{"source":"end"} {"again":1}`, http.StatusBadRequest, CodeBadJSON},
		{"machine and spec", "POST", "/v1/predict", `{"source":"end","machine":"POWER1","spec":{"name":"x"}}`, http.StatusBadRequest, CodeBadJSON},
		{"unknown machine", "POST", "/v1/predict", `{"source":"end","machine":"PDP11"}`, http.StatusNotFound, CodeUnknownMachine},
		{"invalid inline spec", "POST", "/v1/predict", `{"source":"end","spec":{"name":"x"}}`, http.StatusUnprocessableEntity, CodeInvalidSpec},
		{"bad program", "POST", "/v1/predict", `{"source":"do do do"}`, http.StatusUnprocessableEntity, CodeBadProgram},
		{"bad args", "POST", "/v1/predict", mustJSON(t, PredictRequest{Source: symbolic, Args: map[string]float64{"wrong": 1}}), http.StatusBadRequest, CodeBadArgs},
		{"oversized body", "POST", "/v1/predict", `{"source":"` + strings.Repeat("x", 600) + `"}`, http.StatusRequestEntityTooLarge, CodeBodyTooLarge},
		{"wrong method", "GET", "/v1/predict", ``, http.StatusMethodNotAllowed, CodeMethodNotAllowed},
		{"batch bad json", "POST", "/v1/batch", `[1,2]`, http.StatusBadRequest, CodeBadJSON},
		{"batch unknown machine", "POST", "/v1/batch", `{"sources":["end"],"machine":"PDP11"}`, http.StatusNotFound, CodeUnknownMachine},
		{"optimize bad json", "POST", "/v1/optimize", `nope`, http.StatusBadRequest, CodeBadJSON},
		{"optimize bad program", "POST", "/v1/optimize", `{"source":"zzz zzz"}`, http.StatusUnprocessableEntity, CodeBadProgram},
		{"optimize unknown machine", "POST", "/v1/optimize", `{"source":"end","machine":"PDP11"}`, http.StatusNotFound, CodeUnknownMachine},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := ts.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d (body %s)", resp.StatusCode, tc.wantStatus, body)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("content type %q", ct)
			}
			var er ErrorResponse
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&er); err != nil {
				t.Fatalf("body is not a bare ErrorResponse: %v (%s)", err, body)
			}
			if er.Error.Code != tc.wantCode {
				t.Errorf("code %q, want %q (message %q)", er.Error.Code, tc.wantCode, er.Error.Message)
			}
			if er.Error.Message == "" {
				t.Error("empty error message")
			}
		})
	}
}

// TestE2EBatchPerSlotErrors checks that broken programs fail their
// slot without failing the batch.
func TestE2EBatchPerSlotErrors(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	valid := "program p\ninteger i\nreal a(10)\ndo i = 1, 10\na(i) = 1.0\nenddo\nend\n"
	status, got := postJSON(t, ts, "/v1/batch", BatchRequest{Sources: []string{valid, "syntax ! error", valid}})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, got)
	}
	var resp BatchResponse
	if err := json.Unmarshal(got, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(resp.Results))
	}
	if resp.Results[0].Error != nil || resp.Results[2].Error != nil {
		t.Errorf("valid slots failed: %+v", resp.Results)
	}
	if resp.Results[0].Cost == "" || resp.Results[0].Cost != resp.Results[2].Cost {
		t.Errorf("valid slots priced inconsistently: %+v", resp.Results)
	}
	if resp.Results[1].Error == nil || resp.Results[1].Error.Code != CodeBadProgram {
		t.Errorf("bad slot: %+v", resp.Results[1])
	}
}

// TestHealthAndReady pins the probe endpoints, including the drain
// flip.
func TestHealthAndReady(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	get := func(path string) (int, string) {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	if code, body := get("/healthz"); code != 200 || body != "ok\n" {
		t.Errorf("/healthz = %d %q", code, body)
	}
	if code, body := get("/readyz"); code != 200 || body != "ok\n" {
		t.Errorf("/readyz = %d %q", code, body)
	}
	s.SetDraining(true)
	if code, body := get("/readyz"); code != 503 || body != "draining\n" {
		t.Errorf("draining /readyz = %d %q", code, body)
	}
	if code, _ := get("/healthz"); code != 200 {
		t.Errorf("draining /healthz = %d, want 200 (liveness is not readiness)", code)
	}
	s.SetDraining(false)
	if code, _ := get("/readyz"); code != 200 {
		t.Errorf("undrained /readyz = %d", code)
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestE2EDeepNestingIs422: a program nesting deeper than the parser's
// limit is an ordinary bad_program answer on every endpoint that
// parses, never a crashed process.
func TestE2EDeepNestingIs422(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	n := source.MaxNestDepth + 1
	src := "program p\n  real s\n  s = " + strings.Repeat("(", n) + "1.0" + strings.Repeat(")", n) + "\nend\n"
	for _, tc := range []struct {
		path string
		req  any
	}{
		{"/v1/predict", PredictRequest{Source: src}},
		{"/v1/explain", ExplainRequest{Source: src}},
		{"/v1/optimize", OptimizeRequest{Source: src}},
	} {
		status, body := postJSON(t, ts, tc.path, tc.req)
		var er ErrorResponse
		if status != http.StatusUnprocessableEntity || json.Unmarshal(body, &er) != nil || er.Error.Code != CodeBadProgram {
			t.Errorf("%s: status %d, body %.300s; want 422 %s", tc.path, status, body, CodeBadProgram)
		}
	}
}
