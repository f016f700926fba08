package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"perfpredict"
	"perfpredict/internal/resultcache"
	"perfpredict/internal/source"
)

// ExploreRequest is the body of POST /v1/explore: a machine template
// and a kernel set swept across its lattice. ?async=1 submits the
// sweep as a job (202 + id) instead of computing inline — the path
// for large lattices, whose cell count can dwarf the request
// deadline.
type ExploreRequest struct {
	// Kernels are the F-lite programs whose predicted costs form each
	// configuration's cost vector; coordinate i is named "k<i>" in the
	// response.
	Kernels []string `json:"kernels"`
	// Template is the machine template in the SpecTemplate JSON
	// format ("base" inline spec or "base_machine" registered name,
	// plus pipe/dispatch ranges, op alternatives, budget weights). It
	// is parsed strictly and validated on its own — any violation is a
	// 422 invalid_template, distinct from a malformed request body.
	Template json.RawMessage `json:"template"`
	// Args assigns values to kernel unknowns at evaluation
	// (probabilities default to 0.5, other missing unknowns to 100).
	Args map[string]float64 `json:"args,omitempty"`
	// Target, when positive, selects the cheapest-budget config whose
	// total cost meets it as the response's "best".
	Target float64 `json:"target,omitempty"`
}

// The response of a successful /v1/explore is a
// perfpredict.ExploreResult encoded as-is — like /v1/explain, the
// result types carry their own JSON shape, so the server body is by
// construction the library's sweep and nothing else.

// exploreKernels names the request's kernels by index — the one
// naming convention shared between the server and the e2e suite's
// direct library calls.
func exploreKernels(srcs []string) []perfpredict.ExploreKernel {
	ks := make([]perfpredict.ExploreKernel, len(srcs))
	for i, src := range srcs {
		ks[i] = perfpredict.ExploreKernel{Name: fmt.Sprintf("k%d", i), Source: src}
	}
	return ks
}

// prepareExplore checks the request shape, parses and validates the
// template, and caps the lattice — all up front, so both the sync
// path and an async submission fail now with the final status, never
// inside an accepted job.
func (s *Server) prepareExplore(r *http.Request) (work, *apiError) {
	var req ExploreRequest
	if aerr := decodeBody(r, &req); aerr != nil {
		return work{}, aerr
	}
	if len(req.Kernels) == 0 {
		return work{}, errBadJSON("explore needs at least one kernel")
	}
	if len(req.Template) == 0 {
		return work{}, errBadJSON("explore needs a template")
	}
	tpl, err := perfpredict.ParseMachineTemplate(req.Template)
	if err != nil {
		return work{}, errInvalidTemplate(err.Error())
	}
	if err := tpl.Validate(); err != nil {
		return work{}, errInvalidTemplate(err.Error())
	}
	cells, err := tpl.Size()
	if err != nil {
		return work{}, errInvalidTemplate(err.Error())
	}
	if cells > s.cfg.MaxExploreCells {
		return work{}, errLatticeTooLarge(cells, s.cfg.MaxExploreCells)
	}
	tplFP, err := tpl.Fingerprint()
	if err != nil {
		return work{}, errInvalidTemplate(err.Error())
	}
	fps := make([]source.Fingerprint, len(req.Kernels))
	for i, src := range req.Kernels {
		fps[i] = s.programFP(src)
	}
	return work{
		key: resultcache.ExploreKey(tplFP, fps, req.Args, req.Target),
		run: func(ctx context.Context, j *job) (any, error) {
			opt := perfpredict.ExploreOptions{
				Workers:  s.boundWorkers(0),
				Args:     req.Args,
				Target:   req.Target,
				SegCache: s.seg,
			}
			if j != nil {
				opt.Progress = j.sweepProgress
			}
			return perfpredict.ExploreCtx(ctx, tpl, exploreKernels(req.Kernels), opt)
		},
	}, nil
}
