package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"perfpredict"
	"perfpredict/internal/resultcache"
	"perfpredict/internal/sem"
	"perfpredict/internal/source"
)

// PredictRequest is the body of POST /v1/predict.
type PredictRequest struct {
	// Source is the F-lite program to price.
	Source string `json:"source"`
	// Machine names a registered target (default POWER1). Spec, when
	// given instead, is an inline machine description in the
	// machine-spec JSON format, validated exactly like a spec file.
	Machine string          `json:"machine,omitempty"`
	Spec    json.RawMessage `json:"spec,omitempty"`
	// Args, when present, evaluates the symbolic cost at this point
	// (probability unknowns default to 0.5).
	Args map[string]float64 `json:"args,omitempty"`
}

// UnknownJSON mirrors perfpredict.Unknown.
type UnknownJSON struct {
	Name   string `json:"name"`
	Kind   string `json:"kind"`
	Source string `json:"source"`
}

// PredictResponse is the body of a successful /v1/predict. The
// in_core/memory pair decomposes cost (cost = in_core + memory); both
// are present only when the target declares an active memory
// hierarchy, so hierarchy-less responses are byte-identical to the
// pre-memory wire format.
type PredictResponse struct {
	Machine    string        `json:"machine"`
	Cost       string        `json:"cost"`
	InCore     string        `json:"in_core,omitempty"`
	Memory     string        `json:"memory,omitempty"`
	OneTime    string        `json:"one_time,omitempty"`
	Unknowns   []UnknownJSON `json:"unknowns,omitempty"`
	Eval       *float64      `json:"eval,omitempty"`
	EvalMemory *float64      `json:"eval_memory,omitempty"`
}

// BatchRequest is the body of POST /v1/batch.
type BatchRequest struct {
	Sources []string        `json:"sources"`
	Machine string          `json:"machine,omitempty"`
	Spec    json.RawMessage `json:"spec,omitempty"`
	// Args evaluates every successful prediction at one point.
	Args map[string]float64 `json:"args,omitempty"`
	// Workers bounds this batch's worker pool (capped by the server's
	// -workers flag; 0 = server default).
	Workers int `json:"workers,omitempty"`
}

// BatchItem is one per-source slot of a batch response,
// index-aligned with the request's sources. Exactly one of Cost or
// Error is set.
type BatchItem struct {
	Cost       string     `json:"cost,omitempty"`
	Memory     string     `json:"memory,omitempty"`
	Eval       *float64   `json:"eval,omitempty"`
	EvalMemory *float64   `json:"eval_memory,omitempty"`
	Error      *ErrorBody `json:"error,omitempty"`
}

// BatchResponse is the body of a successful /v1/batch.
type BatchResponse struct {
	Machine string      `json:"machine"`
	Results []BatchItem `json:"results"`
}

// OptimizeRequest is the body of POST /v1/optimize.
type OptimizeRequest struct {
	Source  string          `json:"source"`
	Machine string          `json:"machine,omitempty"`
	Spec    json.RawMessage `json:"spec,omitempty"`
	// Nominal assigns values to unknowns for ranking variants.
	Nominal map[string]float64 `json:"nominal,omitempty"`
	// MaxNodes / MaxDepth bound the search (0 = library defaults).
	MaxNodes int `json:"max_nodes,omitempty"`
	MaxDepth int `json:"max_depth,omitempty"`
}

// OptimizeResponse is the body of a successful /v1/optimize. Cache
// counters are deliberately absent: on the server's warm shared
// caches they depend on request order, which would break the
// server-equals-library response contract; cumulative cache
// statistics are on /metrics instead.
type OptimizeResponse struct {
	Machine         string   `json:"machine"`
	Source          string   `json:"source"`
	Transformations []string `json:"transformations,omitempty"`
	PredictedBefore float64  `json:"predicted_before"`
	PredictedAfter  float64  `json:"predicted_after"`
	// MemoryBefore/MemoryAfter are the memory-hierarchy share of the
	// respective predictions; omitted for hierarchy-less targets.
	MemoryBefore float64 `json:"memory_before,omitempty"`
	MemoryAfter  float64 `json:"memory_after,omitempty"`
	Explored     int     `json:"explored"`
}

// ExplainRequest is the body of POST /v1/explain.
type ExplainRequest struct {
	Source  string          `json:"source"`
	Machine string          `json:"machine,omitempty"`
	Spec    json.RawMessage `json:"spec,omitempty"`
	// Nominal assigns values to unknowns when apportioning cycles
	// across nests and evaluating the what-if (probabilities default
	// to 0.5, other missing unknowns to 100).
	Nominal map[string]float64 `json:"nominal,omitempty"`
	// SkipWhatIf suppresses the one-more-pipe experiment.
	SkipWhatIf bool `json:"skip_what_if,omitempty"`
}

// route is one POST endpoint: a row of the table every API request
// is served from. prepare decodes the body, resolves the target,
// validates, and returns the request's work; serveRoute does the
// rest the same way for every row.
type route struct {
	path string
	// name labels the endpoint in metrics.
	name string
	// prefix starts the ids of the route's async jobs; "" marks a
	// sync-only route, which ignores ?async=1.
	prefix  string
	prepare func(r *http.Request) (work, *apiError)
}

// work is a prepared request: the content address of its response
// and the computation that produces it. run reports progress to j on
// an async run; j is nil on a synchronous one. A run's failure is an
// *apiError when the request is at fault, otherwise whatever the
// library returned (see apiErrorOf).
type work struct {
	key resultcache.Key
	run func(ctx context.Context, j *job) (any, error)
}

// routes is the API's route table.
func (s *Server) routes() []route {
	return []route{
		{"/v1/predict", "predict", "", s.preparePredict},
		{"/v1/batch", "batch", "", s.prepareBatch},
		{"/v1/optimize", "optimize", "opt-", s.prepareOptimize},
		{"/v1/explain", "explain", "", s.prepareExplain},
		{"/v1/explore", "explore", "exp-", s.prepareExplore},
	}
}

// serveRoute is the one runner behind every route: prepare, then
// submit a job (?async=1 on a route with a job prefix) or answer
// through the result cache.
func (s *Server) serveRoute(rt route) func(r *http.Request) (any, *apiError) {
	return func(r *http.Request) (any, *apiError) {
		w, aerr := rt.prepare(r)
		if aerr != nil {
			return nil, aerr
		}
		if rt.prefix != "" && isAsync(r) {
			return s.submitJob(w, rt.prefix)
		}
		return s.withResultCache(r.Context(), w)
	}
}

// runSync computes w for a synchronous request. A run that finishes
// after the request's context ended is still a context failure: its
// response would reach nobody, or arrive after the deadline.
func runSync(ctx context.Context, w work) (any, *apiError) {
	resp, err := w.run(ctx, nil)
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		return nil, apiErrorOf(err)
	}
	return resp, nil
}

// apiErrorOf maps a run's failure to its response: an *apiError
// passes through, a context error is ctxError, and anything else is
// the program's fault.
func apiErrorOf(err error) *apiError {
	var aerr *apiError
	switch {
	case errors.As(err, &aerr):
		return aerr
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return ctxError(err)
	}
	return errBadProgram(err.Error())
}

func (s *Server) preparePredict(r *http.Request) (work, *apiError) {
	var req PredictRequest
	if aerr := decodeBody(r, &req); aerr != nil {
		return work{}, aerr
	}
	t, aerr := s.resolveTarget(req.Machine, req.Spec)
	if aerr != nil {
		return work{}, aerr
	}
	return work{
		key: resultcache.PredictKey(s.programFP(req.Source), t.Fingerprint(), req.Args),
		run: func(ctx context.Context, _ *job) (any, error) {
			p, err := perfpredict.PredictCtx(ctx, req.Source, t, perfpredict.PredictOptions{Cache: s.seg})
			if err != nil {
				return nil, err
			}
			resp, aerr := buildPredictResponse(p, t.Name, req.Args)
			if aerr != nil {
				return nil, aerr
			}
			return resp, nil
		},
	}, nil
}

func (s *Server) prepareBatch(r *http.Request) (work, *apiError) {
	var req BatchRequest
	if aerr := decodeBody(r, &req); aerr != nil {
		return work{}, aerr
	}
	t, aerr := s.resolveTarget(req.Machine, req.Spec)
	if aerr != nil {
		return work{}, aerr
	}
	// The batch key covers the ordered per-source fingerprints
	// (responses are index-aligned) but not Workers: results are
	// byte-identical for any worker count, so a different ask for the
	// same work is still the same work.
	fps := make([]source.Fingerprint, len(req.Sources))
	for i, src := range req.Sources {
		fps[i] = s.programFP(src)
	}
	return work{
		key: resultcache.BatchKey(fps, t.Fingerprint(), req.Args),
		run: func(ctx context.Context, _ *job) (any, error) {
			preds, errs := perfpredict.PredictBatchCtx(ctx, req.Sources, t,
				perfpredict.BatchOptions{Workers: s.boundWorkers(req.Workers), Cache: s.seg})
			resp := BatchResponse{Machine: t.Name, Results: make([]BatchItem, len(preds))}
			for i := range preds {
				if errs[i] != nil {
					resp.Results[i].Error = &ErrorBody{Code: CodeBadProgram, Message: errs[i].Error()}
					continue
				}
				item, aerr := buildBatchItem(preds[i], req.Args)
				if aerr != nil {
					resp.Results[i].Error = &ErrorBody{Code: aerr.code, Message: aerr.msg}
					continue
				}
				resp.Results[i] = item
			}
			return resp, nil
		},
	}, nil
}

func (s *Server) prepareOptimize(r *http.Request) (work, *apiError) {
	var req OptimizeRequest
	if aerr := decodeBody(r, &req); aerr != nil {
		return work{}, aerr
	}
	t, aerr := s.resolveTarget(req.Machine, req.Spec)
	if aerr != nil {
		return work{}, aerr
	}
	// Parse and analyze up front: an async submission must fail now —
	// with the same 422 a sync call would produce — not inside a job
	// the client has already been told to poll. The same parse keys
	// the program.
	prog, err := source.Parse(req.Source)
	if err != nil {
		return work{}, errBadProgram(err.Error())
	}
	if _, err := sem.Analyze(prog); err != nil {
		return work{}, errBadProgram(err.Error())
	}
	return work{
		key: resultcache.OptimizeKey(s.parsedFP(req.Source, prog), t.Fingerprint(),
			req.Nominal, req.MaxNodes, req.MaxDepth),
		run: func(ctx context.Context, j *job) (any, error) {
			opt := perfpredict.OptimizeOptions{
				Workers:   s.boundWorkers(0),
				SegCache:  s.seg,
				NestCache: s.nest,
				MaxNodes:  req.MaxNodes,
				MaxDepth:  req.MaxDepth,
			}
			if j != nil {
				opt.Progress = j.searchProgress
			}
			res, err := perfpredict.OptimizeCtx(ctx, req.Source, t, req.Nominal, opt)
			if err != nil {
				return nil, err
			}
			return OptimizeResponse{
				Machine:         t.Name,
				Source:          res.Source,
				Transformations: res.Transformations,
				PredictedBefore: res.PredictedBefore,
				PredictedAfter:  res.PredictedAfter,
				MemoryBefore:    res.MemoryBefore,
				MemoryAfter:     res.MemoryAfter,
				Explored:        res.Explored,
			}, nil
		},
	}, nil
}

// The response of a successful /v1/explain is a
// perfpredict.ExplainReport encoded as-is: the report types carry
// their own JSON shape, so the server body is by construction the
// library's diagnosis and nothing else.

func (s *Server) prepareExplain(r *http.Request) (work, *apiError) {
	var req ExplainRequest
	if aerr := decodeBody(r, &req); aerr != nil {
		return work{}, aerr
	}
	t, aerr := s.resolveTarget(req.Machine, req.Spec)
	if aerr != nil {
		return work{}, aerr
	}
	return work{
		key: resultcache.ExplainKey(s.programFP(req.Source), t.Fingerprint(), req.Nominal, req.SkipWhatIf),
		run: func(ctx context.Context, _ *job) (any, error) {
			return perfpredict.ExplainCtx(ctx, req.Source, t, perfpredict.ExplainOptions{
				Nominal:    req.Nominal,
				SkipWhatIf: req.SkipWhatIf,
			})
		},
	}, nil
}

// buildPredictResponse converts a library prediction into the wire
// shape — shared with the e2e suite, which byte-compares the server
// body against this function applied to a direct library call.
func buildPredictResponse(p *perfpredict.Prediction, machineName string, args map[string]float64) (PredictResponse, *apiError) {
	item, aerr := buildBatchItem(p, args)
	if aerr != nil {
		return PredictResponse{}, aerr
	}
	resp := PredictResponse{Machine: machineName, Cost: item.Cost, Memory: item.Memory,
		Eval: item.Eval, EvalMemory: item.EvalMemory}
	if !p.Memory.IsZero() {
		resp.InCore = p.Cost.Sub(p.Memory).String()
	}
	if c, ok := p.OneTime.IsConst(); !ok || c != 0 {
		resp.OneTime = p.OneTime.String()
	}
	for _, u := range p.Unknowns {
		resp.Unknowns = append(resp.Unknowns, UnknownJSON{Name: u.Name, Kind: u.Kind, Source: u.Source})
	}
	return resp, nil
}

// buildBatchItem converts a library prediction into one batch slot:
// the cost, memory and evaluation fields a predict response shares.
func buildBatchItem(p *perfpredict.Prediction, args map[string]float64) (BatchItem, *apiError) {
	item := BatchItem{Cost: p.Cost.String()}
	if !p.Memory.IsZero() {
		item.Memory = p.Memory.String()
	}
	if args != nil {
		v, err := p.EvalAt(args)
		if err != nil {
			return BatchItem{}, errBadArgs(err.Error())
		}
		item.Eval = &v
		if !p.Memory.IsZero() {
			mv, err := p.EvalMemoryAt(args)
			if err != nil {
				return BatchItem{}, errBadArgs(err.Error())
			}
			item.EvalMemory = &mv
		}
	}
	return item, nil
}

// isAsync reports whether a request asked for job-style execution
// (?async=1).
func isAsync(r *http.Request) bool {
	v := r.URL.Query().Get("async")
	return v != "" && v != "0" && v != "false"
}

// boundWorkers resolves a request's worker ask against the server
// cap: no ask, or one above the cap, gets the cap.
func (s *Server) boundWorkers(asked int) int {
	if asked <= 0 || asked > s.cfg.Workers {
		return s.cfg.Workers
	}
	return asked
}

// decodeBody reads and strictly decodes a JSON request body: unknown
// fields and trailing data are 400s, and a body over the configured
// cap is 413.
func decodeBody(r *http.Request, dst any) *apiError {
	data, err := io.ReadAll(r.Body)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return &apiError{status: statusTooLarge, code: CodeBodyTooLarge,
				msg: fmt.Sprintf("request body exceeds %d bytes", mbe.Limit)}
		}
		return errBadJSON("reading body: " + err.Error())
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return errBadJSON(err.Error())
	}
	if dec.More() {
		return errBadJSON("trailing data after JSON document")
	}
	return nil
}
