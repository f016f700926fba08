package invariants

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"

	"perfpredict/internal/progen"
	"perfpredict/internal/serve"
)

// CheckResultCache runs the serving-stack cache invariant for one
// seed: on generated programs against a generated machine spec
// (uploaded inline, the hardest cache-key case — the machine exists
// only as content), the response bytes from a cache-disabled server,
// a cold cached server, and the same cached server asked again are
// identical for every endpoint. The result cache may change latency,
// never content; a divergence means a request field that influences
// response bytes escaped the cache key.
func CheckResultCache(seed int64) []Violation {
	var vs []Violation
	fail := func(inv, format string, a ...any) {
		vs = append(vs, Violation{Invariant: inv, Seed: seed, Detail: fmt.Sprintf(format, a...)})
	}
	r := progen.NewRand(seed)
	srcA := progen.GenProgram(r, progen.ProgramConfig{AllowIf: true})
	srcB := progen.GenProgram(r, progen.ProgramConfig{})
	spec := progen.GenSpec(r)
	enc, err := spec.Encode()
	if err != nil {
		fail("gen-spec-valid", "Encode: %v", err)
		return vs
	}

	off := serve.New(serve.Config{DisableResultCache: true}).Handler()
	cached := serve.New(serve.Config{}).Handler()
	post := func(h http.Handler, path string, req any) (int, []byte) {
		body, err := json.Marshal(req)
		if err != nil {
			panic(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path,
			strings.NewReader(string(body))))
		return rec.Code, rec.Body.Bytes()
	}
	check := func(label, path string, req any) {
		stOff, bodyOff := post(off, path, req)
		stCold, bodyCold := post(cached, path, req)
		stWarm, bodyWarm := post(cached, path, req)
		if stOff != stCold || stOff != stWarm {
			fail("result-cache-identical", "%s: status off=%d cold=%d warm=%d",
				label, stOff, stCold, stWarm)
			return
		}
		if !bytes.Equal(bodyOff, bodyCold) {
			fail("result-cache-identical", "%s: cold body differs from cache-off\noff:  %s\ncold: %s",
				label, bodyOff, bodyCold)
		}
		if !bytes.Equal(bodyCold, bodyWarm) {
			fail("result-cache-identical", "%s: warm hit differs from its own compute\ncold: %s\nwarm: %s",
				label, bodyCold, bodyWarm)
		}
	}

	check("predict", "/v1/predict", serve.PredictRequest{Source: srcA, Spec: enc})
	check("predict-args", "/v1/predict", serve.PredictRequest{Source: srcA, Spec: enc,
		Args: map[string]float64{"n": 64, "m": 8, "p": 0.5}})
	check("batch", "/v1/batch", serve.BatchRequest{Sources: []string{srcA, srcB, srcA}, Spec: enc})
	check("optimize", "/v1/optimize", serve.OptimizeRequest{Source: srcB, Spec: enc,
		Nominal: map[string]float64{"n": 40}, MaxNodes: 2, MaxDepth: 1})
	return vs
}
