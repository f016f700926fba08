package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"perfpredict"
)

var exploreTemplate = json.RawMessage(`{
	"base_machine": "POWER1",
	"dispatch": [4, 5],
	"pipes": {"FPU": [1, 2], "FXU": [1, 2]}
}`)

const exploreKernel = "program p\ninteger i\nreal a(64)\ndo i = 1, 64\na(i) = a(i) * 2.0 + 1.0\nenddo\nend\n"

// TestE2EExploreEqualsLibrary proves the server ≡ library contract for
// the explore endpoint: the /v1/explore response bytes equal the
// library's ExploreResult passed through the server's own encoder,
// for a multi-kernel sweep over corpus programs and for a lattice of
// more than a hundred cells.
func TestE2EExploreEqualsLibrary(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	_, srcs := corpusSources(t)

	check := func(name string, req ExploreRequest, minCells int) {
		t.Helper()
		status, got := postJSON(t, ts, "/v1/explore", req)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, status, got)
		}
		tpl, err := perfpredict.ParseMachineTemplate(req.Template)
		if err != nil {
			t.Fatal(err)
		}
		res, err := perfpredict.ExploreCtx(context.Background(), tpl, exploreKernels(req.Kernels),
			perfpredict.ExploreOptions{Args: req.Args, Target: req.Target})
		if err != nil {
			t.Fatalf("%s: library: %v", name, err)
		}
		if res.Cells < minCells {
			t.Fatalf("%s: lattice has %d cells, test meant to cover >= %d", name, res.Cells, minCells)
		}
		if want := marshalBody(res); !bytes.Equal(got, want) {
			t.Errorf("%s:\nserver  %s\nlibrary %s", name, got, want)
		}
	}

	check("two-kernel sweep", ExploreRequest{
		Kernels:  []string{srcs[0], srcs[1]},
		Template: exploreTemplate,
		Args:     map[string]float64{"n": 64},
		Target:   1e9,
	}, 8)
	check("hundred-cell lattice", ExploreRequest{
		Kernels: []string{exploreKernel},
		Template: json.RawMessage(`{
			"base_machine": "POWER1",
			"dispatch": [1, 12],
			"pipes": {"FPU": [1, 3], "FXU": [1, 3]}
		}`),
	}, 100)
}

// TestE2EExploreErrorPaths pins the explore endpoint's structured
// errors, in particular the 422 invalid_template / 400 bad_json
// distinction (a malformed template inside a well-formed body is the
// client's modeling mistake, not a transport one) and the 413
// lattice_too_large admission cap.
func TestE2EExploreErrorPaths(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	small := httptest.NewServer(New(Config{MaxExploreCells: 4}).Handler())
	defer small.Close()

	kernels := `"kernels":["end\n"]`
	cases := []struct {
		name       string
		server     *httptest.Server
		body       string
		wantStatus int
		wantCode   string
	}{
		{"bad json", ts, `{"kernels": `, http.StatusBadRequest, CodeBadJSON},
		{"unknown field", ts, `{"sauce":"x"}`, http.StatusBadRequest, CodeBadJSON},
		{"no kernels", ts, `{"template":{"base_machine":"POWER1"}}`, http.StatusBadRequest, CodeBadJSON},
		{"no template", ts, `{` + kernels + `}`, http.StatusBadRequest, CodeBadJSON},
		{"template not json", ts, `{` + kernels + `,"template":{"base_machine":}}`, http.StatusBadRequest, CodeBadJSON},
		{"unknown base machine", ts, `{` + kernels + `,"template":{"base_machine":"PDP11"}}`, http.StatusUnprocessableEntity, CodeInvalidTemplate},
		{"inverted range", ts, `{` + kernels + `,"template":{"base_machine":"POWER1","dispatch":[5,4]}}`, http.StatusUnprocessableEntity, CodeInvalidTemplate},
		{"unknown unit", ts, `{` + kernels + `,"template":{"base_machine":"POWER1","pipes":{"VPU":[1,2]}}}`, http.StatusUnprocessableEntity, CodeInvalidTemplate},
		{"lattice too large", small, `{` + kernels + `,"template":{"base_machine":"POWER1","dispatch":[4,5],"pipes":{"FPU":[1,3]}}}`, http.StatusRequestEntityTooLarge, CodeLatticeTooLarge},
		{"bad program", ts, `{"kernels":["do do do"],"template":{"base_machine":"POWER1","dispatch":[4,5]}}`, http.StatusUnprocessableEntity, CodeBadProgram},
		{"bad program after good", ts, `{"kernels":["program p\n x = 1\nend\n","program p\n real a(10)\n a = 1\nend\n"],"template":{"base_machine":"POWER1","dispatch":[4,5]}}`, http.StatusUnprocessableEntity, CodeBadProgram},
	}
	// Kernels are parsed once per sweep, before any cell runs; a kernel
	// that fails to parse or analyze still reports the first cell and
	// the kernel, exactly as when every cell parsed its own copy.
	wantMsgs := map[string]string{
		"bad program":            `explore: cell POWER1[dispatch=4]: kernel k0: 1:1: expected program or subroutine (near "do")`,
		"bad program after good": `explore: cell POWER1[dispatch=4]: kernel k1: 3:2: array "a" assigned without subscripts`,
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := tc.server.Client().Post(tc.server.URL+"/v1/explore", "application/json",
				strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d (body %s)", resp.StatusCode, tc.wantStatus, body)
			}
			var er ErrorResponse
			if err := json.Unmarshal(body, &er); err != nil {
				t.Fatalf("not a structured error: %v (%s)", err, body)
			}
			if er.Error.Code != tc.wantCode {
				t.Errorf("code %q, want %q (%q)", er.Error.Code, tc.wantCode, er.Error.Message)
			}
			if want, ok := wantMsgs[tc.name]; ok && er.Error.Message != want {
				t.Errorf("message %q, want %q", er.Error.Message, want)
			}
		})
	}
}

// TestE2EExploreShedAndDeadline: a sweep arriving at a full admission
// semaphore sheds as a structured 503, and one under an already-spent
// deadline returns a structured 504 without sweeping.
func TestE2EExploreShedAndDeadline(t *testing.T) {
	req := ExploreRequest{Kernels: []string{exploreKernel}, Template: exploreTemplate}

	s := New(Config{MaxInflight: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.sem <- struct{}{} // fill admission white-box
	status, body := postJSON(t, ts, "/v1/explore", req)
	<-s.sem
	if status != http.StatusServiceUnavailable {
		t.Fatalf("shed status %d, want 503: %s", status, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Error.Code != CodeOverloaded {
		t.Errorf("shed code %q, want %q", er.Error.Code, CodeOverloaded)
	}

	slow := httptest.NewServer(New(Config{Timeout: time.Nanosecond}).Handler())
	defer slow.Close()
	status, body = postJSON(t, slow, "/v1/explore", req)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("deadline status %d, want 504: %s", status, body)
	}
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Error.Code != CodeDeadlineExceeded {
		t.Errorf("deadline code %q, want %q", er.Error.Code, CodeDeadlineExceeded)
	}
}

// TestE2EExploreCacheByteIdentity extends the off/cold/warm identity
// gate to the explore endpoint: cache-off, cold-compute, and warm-hit
// bodies are byte-identical, every warm repeat is a hit, and the
// request dimensions (template, kernel set, args, target) do not
// alias each other's keys.
func TestE2EExploreCacheByteIdentity(t *testing.T) {
	off := httptest.NewServer(New(Config{DisableResultCache: true}).Handler())
	defer off.Close()
	s := New(Config{})
	cached := httptest.NewServer(s.Handler())
	defer cached.Close()

	check := func(name string, req ExploreRequest) {
		t.Helper()
		stOff, bodyOff := postJSON(t, off, "/v1/explore", req)
		stCold, bodyCold := postJSON(t, cached, "/v1/explore", req)
		stWarm, bodyWarm := postJSON(t, cached, "/v1/explore", req)
		if stOff != stCold || stOff != stWarm || stOff != http.StatusOK {
			t.Errorf("%s: status off=%d cold=%d warm=%d", name, stOff, stCold, stWarm)
			return
		}
		if !bytes.Equal(bodyOff, bodyCold) {
			t.Errorf("%s: cold cached body differs from cache-off body\noff:  %s\ncold: %s",
				name, bodyOff, bodyCold)
		}
		if !bytes.Equal(bodyCold, bodyWarm) {
			t.Errorf("%s: warm hit differs from its own cold compute\ncold: %s\nwarm: %s",
				name, bodyCold, bodyWarm)
		}
	}

	base := ExploreRequest{Kernels: []string{exploreKernel}, Template: exploreTemplate}
	check("base", base)
	check("with args", ExploreRequest{Kernels: base.Kernels, Template: base.Template,
		Args: map[string]float64{"n": 32}})
	check("with target", ExploreRequest{Kernels: base.Kernels, Template: base.Template,
		Target: 30000})
	check("two kernels", ExploreRequest{
		Kernels: []string{exploreKernel,
			"program q\ninteger i\nreal a(64)\ndo i = 1, 64\na(i) = a(i) - 3.0\nenddo\nend\n"},
		Template: base.Template})
	check("narrower template", ExploreRequest{Kernels: base.Kernels,
		Template: json.RawMessage(`{"base_machine":"POWER1","pipes":{"FPU":[1,2]}}`)})
	const reqs = 5

	hits := scrapeInt(t, cached, "predictd_result_cache_hits")
	if hits != reqs {
		t.Errorf("result cache hits = %d, want %d (one per warm repeat)", hits, reqs)
	}
	if st := s.Results().Stats(); st.Entries != reqs {
		t.Errorf("result cache entries = %d, want %d distinct keys", st.Entries, reqs)
	}
}

// TestE2EExploreAsyncJobMatchesSync: an async sweep's job Result must
// be byte-identical to the synchronous body, the job id carries the
// explore prefix, progress reports cells, and the finished job seeds
// the shared result cache.
func TestE2EExploreAsyncJobMatchesSync(t *testing.T) {
	req := ExploreRequest{Kernels: []string{exploreKernel}, Template: exploreTemplate}

	off := httptest.NewServer(New(Config{DisableResultCache: true}).Handler())
	defer off.Close()
	_, syncBody := postJSON(t, off, "/v1/explore", req)

	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	status, body := postJSON(t, ts, "/v1/explore?async=1", req)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d, want 202\n%s", status, body)
	}
	id := jobStatusOf(t, body).ID
	if !strings.HasPrefix(id, "exp-") {
		t.Errorf("explore job id %q lacks the exp- prefix", id)
	}
	js := waitJob(t, ts, id)
	if js.State != jobDone {
		t.Fatalf("job failed: %+v", js)
	}
	if !bytes.Equal(append(js.Result, '\n'), syncBody) {
		t.Errorf("async result differs from sync body\nsync:  %s\nasync: %s", syncBody, js.Result)
	}
	if js.Explored != 8 {
		t.Errorf("finished sweep reports %d cells explored, want 8", js.Explored)
	}
	if js.BestCost != nil {
		t.Errorf("explore job reports an optimize-only best cost: %v", *js.BestCost)
	}

	// The job landed its body in the shared result cache.
	hitsBefore := scrapeInt(t, ts, "predictd_result_cache_hits")
	_, syncAfter := postJSON(t, ts, "/v1/explore", req)
	if !bytes.Equal(syncAfter, syncBody) {
		t.Errorf("sync-after-async differs:\nwant: %s\ngot:  %s", syncBody, syncAfter)
	}
	if got := scrapeInt(t, ts, "predictd_result_cache_hits"); got != hitsBefore+1 {
		t.Errorf("sync-after-async was not a cache hit (hits %d → %d)", hitsBefore, got)
	}

	// An invalid template fails an async submission up front with the
	// same 422 as the sync path — never inside an accepted job.
	status, body = postJSON(t, ts, "/v1/explore?async=1", ExploreRequest{
		Kernels:  []string{exploreKernel},
		Template: json.RawMessage(`{"base_machine":"PDP11"}`),
	})
	if status != http.StatusUnprocessableEntity {
		t.Errorf("async submit of a bad template: status %d, want 422: %s", status, body)
	}
}
