package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"perfpredict/internal/lru"
	"perfpredict/internal/machine"
	"perfpredict/internal/resultcache"
)

const frontProgram = "program p\ninteger i\nreal a(64)\ndo i = 1, 64\na(i) = a(i) + 1.0\nenddo\nend\n"

// memoStats reports a front-end memo's cumulative hits and misses.
func memoStats[K comparable, V any](m *lru.Cache[K, V]) (hits, misses int64) {
	st := m.Stats()
	return st.Hits, st.Misses
}

// serveJSON drives the handler in process and returns status and body.
func serveJSON(t *testing.T, h http.Handler, path string, v any) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// mustServe is serveJSON that requires a 200.
func mustServe(t *testing.T, h http.Handler, path string, v any) []byte {
	t.Helper()
	status, body := serveJSON(t, h, path, v)
	if status != http.StatusOK {
		t.Fatalf("%s: status %d: %s", path, status, body)
	}
	return body
}

// power1Spec returns the embedded POWER1 spec file compacted, as
// json.Marshal sends it inside a request: the bytes the server sees.
func power1Spec(t *testing.T) []byte {
	t.Helper()
	specs, err := machine.EmbeddedSpecs()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, specs["power1.json"]); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFrontWhitespaceVariantsShareEntry: two texts of one program
// take two program-memo entries but key the same result-cache entry,
// and a repeated text is a memo hit.
func TestFrontWhitespaceVariantsShareEntry(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	variant := strings.NewReplacer("\n", "\n\n", "= ", "=   ").Replace(frontProgram)
	a := mustServe(t, h, "/v1/predict", PredictRequest{Source: frontProgram})
	b := mustServe(t, h, "/v1/predict", PredictRequest{Source: variant})
	if !bytes.Equal(a, b) {
		t.Errorf("whitespace variant answered differently:\n%s\n%s", a, b)
	}
	st := s.Results().Stats()
	if st.Entries != 1 || st.Hits != 1 {
		t.Errorf("result cache: %d entries, %d hits; want 1 and 1", st.Entries, st.Hits)
	}
	mustServe(t, h, "/v1/predict", PredictRequest{Source: variant})
	if hits, misses := memoStats(s.programs); hits != 1 || misses != 2 {
		t.Errorf("program memo: %d hits, %d misses; want 1 and 2", hits, misses)
	}
	if n := s.programs.Len(); n != 2 {
		t.Errorf("program memo holds %d entries, want 2", n)
	}
}

// TestFrontBatchParseFailureKeyedByRawText: a slot that does not
// parse is keyed by its raw text, memoised or not, so two different
// broken slots never share a batch entry.
func TestFrontBatchParseFailureKeyedByRawText(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	bad1, bad2 := "program (\n", "program ((\n"
	for round := 0; round < 2; round++ {
		for _, bad := range []string{bad1, bad2} {
			body := mustServe(t, h, "/v1/batch", BatchRequest{Sources: []string{frontProgram, bad}})
			var resp BatchResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Fatal(err)
			}
			if resp.Results[0].Cost == "" || resp.Results[1].Error == nil {
				t.Fatalf("batch slots: %s", body)
			}
		}
	}
	st := s.Results().Stats()
	if st.Entries != 2 || st.Misses != 2 || st.Hits != 2 {
		t.Errorf("result cache: %d entries, %d misses, %d hits; want 2, 2, 2", st.Entries, st.Misses, st.Hits)
	}
	for _, bad := range []string{bad1, bad2} {
		if got, want := s.programFP(bad), resultcache.SourceKey(bad); got != want {
			t.Errorf("%q keyed %s, want raw-text key %s", bad, got, want)
		}
	}
}

// TestFrontNameAndInlineSpecShareEntries: a registered name and a
// content-identical inline spec resolve to one fingerprint, so the
// second request is a result-cache hit with the same bytes.
func TestFrontNameAndInlineSpecShareEntries(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	byName := mustServe(t, h, "/v1/predict", PredictRequest{Source: frontProgram, Machine: "POWER1"})
	inline := mustServe(t, h, "/v1/predict", PredictRequest{Source: frontProgram, Spec: power1Spec(t)})
	if !bytes.Equal(byName, inline) {
		t.Errorf("name and inline spec answered differently:\n%s\n%s", byName, inline)
	}
	if st := s.Results().Stats(); st.Entries != 1 || st.Hits != 1 {
		t.Errorf("result cache: %d entries, %d hits; want 1 and 1", st.Entries, st.Hits)
	}
	if n := s.targets.Len(); n != 2 {
		t.Errorf("target memo holds %d entries, want 2 (one name, one spec)", n)
	}
}

// TestFrontInlineSpecsNeverAlias: two inline specs that differ in one
// cost segment of an op the program uses get distinct targets,
// fingerprints, cache entries and answers.
func TestFrontInlineSpecsNeverAlias(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	base := power1Spec(t)
	sp, err := machine.ParseSpec(base)
	if err != nil {
		t.Fatal(err)
	}
	sp.Ops["fadd"][0].Segments[0].Noncov++
	changed, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	a := mustServe(t, h, "/v1/predict", PredictRequest{Source: frontProgram, Spec: base})
	b := mustServe(t, h, "/v1/predict", PredictRequest{Source: frontProgram, Spec: changed})
	if bytes.Equal(a, b) {
		t.Errorf("specs differing in fadd answered identically: %s", a)
	}
	if st := s.Results().Stats(); st.Entries != 2 || st.Hits != 0 {
		t.Errorf("result cache: %d entries, %d hits; want 2 and 0", st.Entries, st.Hits)
	}
	ra, aerr := s.resolveTarget("", base)
	if aerr != nil {
		t.Fatal(aerr.msg)
	}
	rb, aerr := s.resolveTarget("", changed)
	if aerr != nil {
		t.Fatal(aerr.msg)
	}
	if ra.target == rb.target || ra.fp == rb.fp {
		t.Errorf("specs differing in fadd share a target or fingerprint %s", ra.fp)
	}
}

// TestFrontFailedResolutionsNotMemoised: 404 and 422 resolutions
// leave no entry behind.
func TestFrontFailedResolutionsNotMemoised(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	for i := 0; i < 2; i++ {
		if status, body := serveJSON(t, h, "/v1/predict", PredictRequest{Source: frontProgram, Machine: "PDP11"}); status != http.StatusNotFound {
			t.Fatalf("unknown machine: status %d: %s", status, body)
		}
		if status, body := serveJSON(t, h, "/v1/predict", PredictRequest{Source: frontProgram, Spec: json.RawMessage(`{"name":"x"}`)}); status != http.StatusUnprocessableEntity {
			t.Fatalf("invalid spec: status %d: %s", status, body)
		}
	}
	if n := s.targets.Len(); n != 0 {
		t.Errorf("target memo holds %d entries after failed resolutions only", n)
	}
	if hits, misses := memoStats(s.targets); hits != 0 || misses != 4 {
		t.Errorf("target memo: %d hits, %d misses; want 0 and 4", hits, misses)
	}
}

// TestFrontSharedTargetsStayPristine drives concurrent mixed traffic
// on every endpoint through shared memoised targets, then checks each
// still equals a freshly built machine: the library treats targets as
// read-only. Run under -race, it is also the memos' data-race gate.
func TestFrontSharedTargetsStayPristine(t *testing.T) {
	s := New(Config{MaxInflight: 64, MaxBodyBytes: 1 << 22})
	h := s.Handler()
	spec := power1Spec(t)
	type call struct {
		path string
		req  any
	}
	var calls []call
	for _, r := range raceWorkload(t) {
		calls = append(calls, call{r.path, r.req})
	}
	calls = append(calls,
		call{"/v1/predict", PredictRequest{Source: frontProgram, Spec: spec}},
		call{"/v1/predict", PredictRequest{Source: frontProgram, Machine: "SuperScalar2"}},
		call{"/v1/batch", BatchRequest{Sources: []string{frontProgram, exploreKernel}, Spec: spec}},
		call{"/v1/explain", ExplainRequest{Source: frontProgram, Machine: "Scalar1"}},
		call{"/v1/explain", ExplainRequest{Source: exploreKernel, Spec: spec, SkipWhatIf: true}},
		call{"/v1/optimize", OptimizeRequest{Source: exploreKernel, Spec: spec, MaxNodes: 4, MaxDepth: 2}},
		call{"/v1/explore", ExploreRequest{Kernels: []string{frontProgram, exploreKernel}, Template: exploreTemplate}},
	)

	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range calls {
				c := calls[(g+k)%len(calls)]
				body, err := json.Marshal(c.req)
				if err != nil {
					t.Error(err)
					return
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, c.path, bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					t.Errorf("goroutine %d %s: status %d: %s", g, c.path, rec.Code, rec.Body.Bytes())
					return
				}
			}
		}(g)
	}
	wg.Wait()

	check := func(what string, r resolved, fresh *machine.Machine) {
		t.Helper()
		if !reflect.DeepEqual(r.target, fresh) {
			t.Errorf("%s: memoised target differs from a fresh build after traffic", what)
		}
		if r.fp != fresh.Fingerprint() {
			t.Errorf("%s: memoised fingerprint %s, fresh %s", what, r.fp, fresh.Fingerprint())
		}
	}
	hitsBefore, _ := memoStats(s.targets)
	for _, name := range []string{"POWER1", "SuperScalar2", "Scalar1"} {
		r, aerr := s.resolveTarget(name, nil)
		if aerr != nil {
			t.Fatal(aerr.msg)
		}
		fresh, err := machine.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		check(name, r, fresh)
	}
	r, aerr := s.resolveTarget("", spec)
	if aerr != nil {
		t.Fatal(aerr.msg)
	}
	sp, err := machine.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := sp.Machine()
	if err != nil {
		t.Fatal(err)
	}
	check("inline spec", r, fresh)
	if hits, _ := memoStats(s.targets); hits-hitsBefore != 4 {
		t.Errorf("post-traffic resolutions: %d memo hits, want 4", hits-hitsBefore)
	}
}

// TestFrontMemoBounds sends more unique programs and inline specs
// than the memos hold: neither memo ever exceeds its bound, and every
// response equals the one a memo-cold server gives.
func TestFrontMemoBounds(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	const perBatch = 128
	batches := make([]BatchRequest, maxProgramMemo/perBatch+4)
	for b := range batches {
		for i := 0; i < perBatch; i++ {
			n := b*perBatch + i
			batches[b].Sources = append(batches[b].Sources,
				fmt.Sprintf("program p\nreal x\nx = %d.0 * x\nend\n", n))
		}
	}
	first := make([][]byte, len(batches))
	for b, req := range batches {
		first[b] = mustServe(t, h, "/v1/batch", req)
		if want := mustServe(t, New(Config{}).Handler(), "/v1/batch", req); !bytes.Equal(first[b], want) {
			t.Fatalf("batch %d differs from a memo-cold server:\n%s\n%s", b, first[b], want)
		}
		if n := s.programs.Len(); n > maxProgramMemo {
			t.Fatalf("program memo holds %d entries, bound %d", n, maxProgramMemo)
		}
	}
	// The first batches' texts have aged out of the memo; keyed
	// again, they find the same result-cache entries.
	hits := s.Results().Stats().Hits
	_, misses := memoStats(s.programs)
	for b := 0; b < 2; b++ {
		if got := mustServe(t, h, "/v1/batch", batches[b]); !bytes.Equal(got, first[b]) {
			t.Errorf("re-sent batch %d differs from its first response", b)
		}
	}
	if _, m := memoStats(s.programs); m-misses != 2*perBatch {
		t.Errorf("re-sent batches: %d program-memo misses, want %d", m-misses, 2*perBatch)
	}
	if got := s.Results().Stats().Hits - hits; got != 2 {
		t.Errorf("re-sent batches: %d result-cache hits, want 2", got)
	}

	sp, err := machine.ParseSpec(power1Spec(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < maxTargetMemo+8; i++ {
		sp.BranchCost = i
		spec, err := json.Marshal(sp)
		if err != nil {
			t.Fatal(err)
		}
		req := PredictRequest{Source: frontProgram, Spec: spec}
		got := mustServe(t, h, "/v1/predict", req)
		if want := mustServe(t, New(Config{}).Handler(), "/v1/predict", req); !bytes.Equal(got, want) {
			t.Fatalf("spec %d differs from a memo-cold server:\n%s\n%s", i, got, want)
		}
		if n := s.targets.Len(); n > maxTargetMemo {
			t.Fatalf("target memo holds %d entries, bound %d", n, maxTargetMemo)
		}
	}
}

// TestFrontWarmHitAllocs guards the warm-hit path: with the program
// keyed and the target resolved from the memos, a /v1/predict hit
// allocates only for the request, decoding and writing. Measured on
// go1.24: 46 allocations by name and 58 with an inline spec, against
// 263 and 515 when every hit parsed the program and built the target.
// The bounds leave about a third of headroom; a change that parses or
// builds on a hit exceeds them.
func TestFrontWarmHitAllocs(t *testing.T) {
	_, srcs := corpusSources(t)
	src := srcs[0]
	for _, tc := range []struct {
		name string
		req  PredictRequest
		max  float64
	}{
		{"named target", PredictRequest{Source: src, Machine: "SuperScalar2"}, 64},
		{"inline spec", PredictRequest{Source: src, Spec: power1Spec(t)}, 80},
	} {
		h := New(Config{}).Handler()
		body, err := json.Marshal(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		mustServe(t, h, "/v1/predict", tc.req)
		allocs := testing.AllocsPerRun(50, func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d", rec.Code)
			}
		})
		if allocs > tc.max {
			t.Errorf("%s: %.0f allocs per warm hit, bound %.0f", tc.name, allocs, tc.max)
		}
	}
}
