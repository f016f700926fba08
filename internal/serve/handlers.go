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

// The response of a successful /v1/explain is a
// perfpredict.ExplainReport encoded as-is: the report types carry
// their own JSON shape, so the server body is by construction the
// library's diagnosis and nothing else.

func (s *Server) handleExplain(r *http.Request) (any, *apiError) {
	var req ExplainRequest
	if aerr := decodeBody(r, &req); aerr != nil {
		return nil, aerr
	}
	t, aerr := s.resolveTarget(req.Machine, req.Spec)
	if aerr != nil {
		return nil, aerr
	}
	key := resultcache.ExplainKey(s.programFP(req.Source), t.Fingerprint(), req.Nominal, req.SkipWhatIf)
	return s.withResultCache(r, key, func() (any, *apiError) {
		rep, err := perfpredict.ExplainCtx(r.Context(), req.Source, t, perfpredict.ExplainOptions{
			Nominal:    req.Nominal,
			SkipWhatIf: req.SkipWhatIf,
		})
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
				return nil, ctxError(err)
			}
			return nil, errBadProgram(err.Error())
		}
		if err := r.Context().Err(); err != nil {
			return nil, ctxError(err)
		}
		return rep, nil
	})
}

func (s *Server) handlePredict(r *http.Request) (any, *apiError) {
	var req PredictRequest
	if aerr := decodeBody(r, &req); aerr != nil {
		return nil, aerr
	}
	t, aerr := s.resolveTarget(req.Machine, req.Spec)
	if aerr != nil {
		return nil, aerr
	}
	key := resultcache.PredictKey(s.programFP(req.Source), t.Fingerprint(), req.Args)
	return s.withResultCache(r, key, func() (any, *apiError) {
		// A one-element batch is the cache-aware, context-aware single
		// prediction: it shares the server's warm segment cache.
		preds, errs := perfpredict.PredictBatchCtx(r.Context(), []string{req.Source}, t,
			perfpredict.BatchOptions{Workers: 1, Cache: s.seg})
		if err := r.Context().Err(); err != nil {
			return nil, ctxError(err)
		}
		if errs[0] != nil {
			return nil, errBadProgram(errs[0].Error())
		}
		return buildPredictResponse(preds[0], t.Name, req.Args)
	})
}

// buildPredictResponse converts a library prediction into the wire
// shape — shared with the e2e suite, which byte-compares the server
// body against this function applied to a direct library call.
func buildPredictResponse(p *perfpredict.Prediction, machineName string, args map[string]float64) (PredictResponse, *apiError) {
	resp := PredictResponse{Machine: machineName, Cost: p.Cost.String()}
	if !p.Memory.IsZero() {
		resp.InCore = p.Cost.Sub(p.Memory).String()
		resp.Memory = p.Memory.String()
	}
	if c, ok := p.OneTime.IsConst(); !ok || c != 0 {
		resp.OneTime = p.OneTime.String()
	}
	for _, u := range p.Unknowns {
		resp.Unknowns = append(resp.Unknowns, UnknownJSON{Name: u.Name, Kind: u.Kind, Source: u.Source})
	}
	if args != nil {
		v, err := p.EvalAt(args)
		if err != nil {
			return PredictResponse{}, errBadArgs(err.Error())
		}
		resp.Eval = &v
		if !p.Memory.IsZero() {
			mv, err := p.EvalMemoryAt(args)
			if err != nil {
				return PredictResponse{}, errBadArgs(err.Error())
			}
			resp.EvalMemory = &mv
		}
	}
	return resp, nil
}

func (s *Server) handleBatch(r *http.Request) (any, *apiError) {
	var req BatchRequest
	if aerr := decodeBody(r, &req); aerr != nil {
		return nil, aerr
	}
	t, aerr := s.resolveTarget(req.Machine, req.Spec)
	if aerr != nil {
		return nil, aerr
	}
	// The batch key covers the ordered per-source fingerprints
	// (responses are index-aligned) but not Workers: results are
	// byte-identical for any worker count, so a different ask for the
	// same work is still the same work.
	fps := make([]source.Fingerprint, len(req.Sources))
	for i, src := range req.Sources {
		fps[i] = s.programFP(src)
	}
	key := resultcache.BatchKey(fps, t.Fingerprint(), req.Args)
	return s.withResultCache(r, key, func() (any, *apiError) {
		preds, errs := perfpredict.PredictBatchCtx(r.Context(), req.Sources, t,
			perfpredict.BatchOptions{Workers: s.boundWorkers(req.Workers), Cache: s.seg})
		if err := r.Context().Err(); err != nil {
			return nil, ctxError(err)
		}
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
	})
}

// buildBatchItem is buildPredictResponse's per-slot sibling.
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

func (s *Server) handleOptimize(r *http.Request) (any, *apiError) {
	var req OptimizeRequest
	if aerr := decodeBody(r, &req); aerr != nil {
		return nil, aerr
	}
	t, aerr := s.resolveTarget(req.Machine, req.Spec)
	if aerr != nil {
		return nil, aerr
	}
	// Parse and analyze up front: an async submission must fail now —
	// with the same 422 a sync call would produce — not inside a job
	// the client has already been told to poll.
	prog, err := source.Parse(req.Source)
	if err != nil {
		return nil, errBadProgram(err.Error())
	}
	if _, err := sem.Analyze(prog); err != nil {
		return nil, errBadProgram(err.Error())
	}
	key := resultcache.OptimizeKey(s.programFP(req.Source), t.Fingerprint(),
		req.Nominal, req.MaxNodes, req.MaxDepth)
	if isAsync(r) {
		return s.submitOptimize(&req, t, key)
	}
	return s.withResultCache(r, key, func() (any, *apiError) {
		resp, err := s.optimize(r.Context(), &req, t, nil)
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
				return nil, ctxError(err)
			}
			return nil, errBadProgram(err.Error())
		}
		return resp, nil
	})
}

// optimize runs the bounded restructuring search on the server's
// warm caches: the one computation behind a sync response and an
// async job alike. progress may be nil.
func (s *Server) optimize(ctx context.Context, req *OptimizeRequest, target *perfpredict.Target, progress func(explored int, best float64)) (OptimizeResponse, error) {
	res, err := perfpredict.OptimizeCtx(ctx, req.Source, target, req.Nominal,
		perfpredict.OptimizeOptions{
			Workers:   s.boundWorkers(0),
			SegCache:  s.seg,
			NestCache: s.nest,
			MaxNodes:  req.MaxNodes,
			MaxDepth:  req.MaxDepth,
			Progress:  progress,
		})
	if err != nil {
		return OptimizeResponse{}, err
	}
	return OptimizeResponse{
		Machine:         target.Name,
		Source:          res.Source,
		Transformations: res.Transformations,
		PredictedBefore: res.PredictedBefore,
		PredictedAfter:  res.PredictedAfter,
		MemoryBefore:    res.MemoryBefore,
		MemoryAfter:     res.MemoryAfter,
		Explored:        res.Explored,
	}, nil
}

// isAsync reports whether an optimize request asked for job-style
// execution (?async=1).
func isAsync(r *http.Request) bool {
	v := r.URL.Query().Get("async")
	return v != "" && v != "0" && v != "false"
}

// boundWorkers resolves a request's worker ask against the server
// cap.
func (s *Server) boundWorkers(asked int) int {
	if s.cfg.Workers <= 0 {
		return asked
	}
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
