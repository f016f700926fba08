package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"perfpredict/internal/kernels"
)

// raceWorkload builds the mixed request list: every kernel predicted,
// one batch over all of them, and two bounded optimizes.
func raceWorkload(t *testing.T) []struct {
	path string
	req  any
} {
	t.Helper()
	var reqs []struct {
		path string
		req  any
	}
	var all []string
	for _, k := range kernels.All() {
		all = append(all, k.Src)
		args := k.Args
		if args == nil {
			args = map[string]float64{"n": 64, "m": 17}
		}
		reqs = append(reqs, struct {
			path string
			req  any
		}{"/v1/predict", PredictRequest{Source: k.Src, Args: args}})
	}
	reqs = append(reqs, struct {
		path string
		req  any
	}{"/v1/batch", BatchRequest{Sources: all}})
	for _, name := range []string{"matmul", "jacobi"} {
		k, err := kernels.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, struct {
			path string
			req  any
		}{"/v1/optimize", OptimizeRequest{Source: k.Src, Nominal: map[string]float64{"n": 40}, MaxNodes: 4, MaxDepth: 2}})
	}
	return reqs
}

// TestConcurrentMixedWorkloadByteIdentical drives 16 goroutines of
// mixed predict/batch/optimize against one server sharing one warm
// cache pair, and asserts every response is byte-identical to the
// serial pass — the cache-state-independence invariant observed
// through the HTTP surface. Run under -race in CI, this is also the
// service's data-race gate.
func TestConcurrentMixedWorkloadByteIdentical(t *testing.T) {
	ts := httptest.NewServer(New(Config{MaxInflight: 64, MaxBodyBytes: 1 << 22}).Handler())
	defer ts.Close()
	reqs := raceWorkload(t)

	// Serial reference pass (its own warmup also proves warm-cache
	// responses equal cold-cache ones: each request repeats).
	serial := make([][]byte, len(reqs))
	for i, r := range reqs {
		status, body := postJSON(t, ts, r.path, r.req)
		if status != http.StatusOK {
			t.Fatalf("serial %s: status %d: %s", r.path, status, body)
		}
		serial[i] = body
	}

	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Offset start positions so different endpoints overlap.
			for k := 0; k < len(reqs); k++ {
				i := (g + k) % len(reqs)
				status, body, err := tryPostJSON(ts, reqs[i].path, reqs[i].req)
				if err != nil {
					errs <- fmt.Errorf("goroutine %d %s: %v", g, reqs[i].path, err)
					return
				}
				if status != http.StatusOK {
					errs <- fmt.Errorf("goroutine %d %s: status %d: %s", g, reqs[i].path, status, body)
					return
				}
				if !bytes.Equal(body, serial[i]) {
					errs <- fmt.Errorf("goroutine %d %s: response diverged from serial\nconc   %s\nserial %s",
						g, reqs[i].path, body, serial[i])
					return
				}
			}
			errs <- nil
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestBornDoneJobCompleteWhenVisible submits async optimizes whose
// result is already cached, so each job is born done, while another
// goroutine polls each next job id as soon as it can exist. A poll
// that finds a job must see it done with its result; under -race it
// also pins that the result is written before the job is published.
func TestBornDoneJobCompleteWhenVisible(t *testing.T) {
	h := New(Config{}).Handler()
	k, err := kernels.Get("daxpy")
	if err != nil {
		t.Fatal(err)
	}
	req := OptimizeRequest{Source: k.Src, MaxNodes: 2, MaxDepth: 1}
	mustServe(t, h, "/v1/optimize", req)
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}

	const n = 200
	submitted := make(chan struct{})
	go func() {
		defer close(submitted)
		for i := 0; i < n; i++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/optimize?async=1", bytes.NewReader(body)))
			if rec.Code != http.StatusAccepted {
				t.Errorf("submission %d: status %d: %s", i, rec.Code, rec.Body)
				return
			}
		}
	}()
	poll := func(i int) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/jobs/opt-%06d", i), nil))
		return rec
	}
	for i := 1; i <= n; i++ {
		rec := poll(i)
		for rec.Code == http.StatusNotFound {
			select {
			case <-submitted:
				// Every submission has returned, so a job still
				// missing means one failed.
				if rec = poll(i); rec.Code == http.StatusNotFound {
					t.Fatalf("job %d never appeared", i)
				}
			default:
				rec = poll(i)
			}
		}
		var js JobStatus
		if err := json.Unmarshal(rec.Body.Bytes(), &js); err != nil {
			t.Fatalf("job %d: %v: %s", i, err, rec.Body)
		}
		if js.State != jobDone || len(js.Result) == 0 {
			t.Fatalf("job %d visible as %q with a %d-byte result", i, js.State, len(js.Result))
		}
	}
	<-submitted
}
