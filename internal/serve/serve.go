// Package serve is the predictd HTTP service: the perfpredict
// library behind five POST endpoints (/v1/predict, /v1/batch,
// /v1/optimize, /v1/explain, /v1/explore) with the production plumbing a
// long-running analysis service needs — bounded admission with load shedding, per-request
// deadlines threaded as context cancellation into the batch workers
// and the transformation search, panic-isolating middleware, warm
// shared segment/nest cost caches, and Prometheus-text observability
// (/metrics, /healthz, /readyz, optional pprof).
//
// The package exists (rather than living inside cmd/predictd) so the
// end-to-end test suite, the load generator, and the binary all drive
// exactly the same handler stack.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"perfpredict"
	"perfpredict/internal/aggregate"
	"perfpredict/internal/lru"
	"perfpredict/internal/obs"
	"perfpredict/internal/resultcache"
	"perfpredict/internal/source"
)

// Config tunes the service. The zero value is usable: defaults are
// filled in by New.
type Config struct {
	// MaxInflight bounds concurrently admitted API requests; further
	// requests are shed with 503 rather than queued, so a burst
	// degrades to fast failures instead of a latency collapse.
	// Default 64.
	MaxInflight int
	// Timeout is the per-request deadline, threaded as a context into
	// every long-running path. Default 30s.
	Timeout time.Duration
	// MaxBodyBytes caps request bodies (413 beyond it). Default 1 MiB.
	MaxBodyBytes int64
	// Workers caps the per-request worker pool for /v1/batch,
	// /v1/optimize and /v1/explore. Default 0 = GOMAXPROCS.
	Workers int
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// ResultCacheBytes bounds the content-addressed result cache that
	// fronts every endpoint with finished response bodies. Default 0 =
	// 64 MiB.
	ResultCacheBytes int64
	// DisableResultCache turns the result cache and its singleflight
	// request coalescing off: every request recomputes. Responses are
	// byte-identical either way; this knob exists for measurement and
	// as an escape hatch.
	DisableResultCache bool
	// MaxJobs bounds concurrently *running* async jobs (optimize
	// searches and explore sweeps; further accepted jobs queue in
	// "pending"). Default 2, so background work cannot starve
	// interactive traffic.
	MaxJobs int
	// JobTimeout is the deadline for one async job's work — async
	// work outlives the submitting request, so the request Timeout
	// does not apply. Default 5m.
	JobTimeout time.Duration
	// MaxExploreCells caps the lattice size /v1/explore accepts;
	// templates expanding beyond it are rejected 413 before any
	// evaluation. Default 4096.
	MaxExploreCells int
}

func (c *Config) defaults() {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 64
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 2
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 5 * time.Minute
	}
	if c.MaxExploreCells <= 0 {
		c.MaxExploreCells = 4096
	}
}

// Server is the handler stack plus its shared warm state.
type Server struct {
	cfg  Config
	seg  *perfpredict.SegmentCache
	nest *perfpredict.NestCache

	// results fronts every endpoint with finished response bodies
	// (nil when disabled); flights coalesces concurrent identical
	// misses; jobs owns the async optimize executions.
	results *resultcache.Cache
	flights resultcache.Group
	jobs    *jobManager

	// hash, targets and programs are the request front end
	// (front.go): each distinct target input and program text is
	// resolved and keyed once.
	hash     hasher
	targets  *lru.Cache[targetKey, *perfpredict.Target]
	programs *lru.Cache[memoKey, source.Fingerprint]

	sem      chan struct{}
	inflight atomic.Int64
	draining atomic.Bool

	metrics   *obs.Registry
	reqs      *obs.CounterVec
	lat       *obs.HistogramVec
	shed      *obs.CounterVec
	panics    *obs.CounterVec
	sfShared  *obs.CounterVec
	jobEvents *obs.CounterVec

	mux *http.ServeMux
}

// New builds a server with warm, empty caches. The same SegmentCache
// and NestCache back every request for the life of the process —
// entries are keyed by structural fingerprint × machine content
// fingerprint, so requests for different machines (including uploaded
// inline specs) coexist in one cache and repeated shapes price as
// lookups.
func New(cfg Config) *Server {
	return newServer(cfg, budgets{programs: maxProgramMemo, targets: maxTargetMemo})
}

// budgets sizes the server's entry-bounded caches; the result cache's
// byte budget is Config.ResultCacheBytes. New uses the production
// sizes; tests shrink them to force eviction.
type budgets struct {
	// seg and nest bound the segment cache and each nest-cache table;
	// zero keeps the aggregate package's sizes.
	seg, nest int
	// programs and targets bound the front-end memos.
	programs, targets int
}

func newServer(cfg Config, b budgets) *Server {
	cfg.defaults()
	s := &Server{
		cfg:  cfg,
		seg:  aggregate.NewSegCache(),
		nest: aggregate.NewNestCache(),
		jobs: newJobManager(cfg.MaxJobs),
		sem:  make(chan struct{}, cfg.MaxInflight),

		hash:     newHasher(),
		targets:  newMemo[targetKey, *perfpredict.Target](b.targets),
		programs: newMemo[memoKey, source.Fingerprint](b.programs),
	}
	if b.seg > 0 {
		s.seg = aggregate.NewSegCacheSized(b.seg)
	}
	if b.nest > 0 {
		s.nest = aggregate.NewNestCacheSized(b.nest)
	}
	if !cfg.DisableResultCache {
		s.results = resultcache.New(cfg.ResultCacheBytes)
	}
	s.initMetrics()
	s.mux = http.NewServeMux()
	for _, rt := range s.routes() {
		s.mux.Handle(rt.path, s.endpoint(http.MethodPost, rt.name, s.serveRoute(rt)))
	}
	s.mux.Handle("GET /v1/jobs/{id}", s.endpoint(http.MethodGet, "jobs", s.handleJobGet))
	s.mux.Handle("/metrics", s.metrics.Handler())
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.draining.Load() {
			// Draining ends in process exit; tell balancers when to
			// re-probe rather than letting them guess.
			w.Header().Set("Retry-After", "5")
			w.WriteHeader(statusUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		fmt.Fprintln(w, "ok")
	})
	if cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

func (s *Server) initMetrics() {
	s.metrics = obs.NewRegistry()
	s.reqs = s.metrics.Counter("predictd_requests_total",
		"API requests by endpoint and HTTP status code (499 = client closed).",
		"endpoint", "code")
	s.lat = s.metrics.Histogram("predictd_request_seconds",
		"API request latency by endpoint.",
		[]float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10}, "endpoint")
	s.shed = s.metrics.Counter("predictd_shed_total",
		"API requests rejected 503 because the admission semaphore was full.",
		"endpoint")
	s.panics = s.metrics.Counter("predictd_panics_total",
		"Handler panics recovered by the isolation middleware.")
	s.metrics.GaugeFunc("predictd_in_flight",
		"API requests currently admitted and executing.",
		func() float64 { return float64(s.inflight.Load()) })
	s.metrics.GaugeFunc("predictd_seg_cache_hits",
		"Cumulative hits in the shared straight-line segment cost cache.",
		func() float64 { h, _ := s.seg.Stats(); return float64(h) })
	s.metrics.GaugeFunc("predictd_seg_cache_misses",
		"Cumulative misses in the shared straight-line segment cost cache.",
		func() float64 { _, m := s.seg.Stats(); return float64(m) })
	s.metrics.GaugeFunc("predictd_nest_cache_hits",
		"Cumulative hits in the shared loop-nest cost cache.",
		func() float64 { h, _ := s.nest.Stats(); return float64(h) })
	s.metrics.GaugeFunc("predictd_nest_cache_misses",
		"Cumulative misses in the shared loop-nest cost cache.",
		func() float64 { _, m := s.nest.Stats(); return float64(m) })
	s.metrics.GaugeFunc("predictd_seg_cache_entries",
		"Segment costs currently held by the shared segment cache.",
		func() float64 { return float64(s.seg.Len()) })
	s.metrics.GaugeFunc("predictd_seg_cache_evictions",
		"Cumulative segment-cache entries evicted to respect the entry budget.",
		func() float64 { return float64(s.seg.Evictions()) })
	s.metrics.GaugeFunc("predictd_nest_cache_entries",
		"Loop-nest costs currently held by the shared nest cache.",
		func() float64 { return float64(s.nest.Len()) })
	s.metrics.GaugeFunc("predictd_nest_cache_evictions",
		"Cumulative nest-cache entries (nests and their sub-nest tables) evicted to respect the entry budget.",
		func() float64 { return float64(s.nest.Evictions()) })
	s.sfShared = s.metrics.Counter("predictd_singleflight_shared_total",
		"Requests that waited on (and shared) another in-flight identical computation.")
	s.jobEvents = s.metrics.Counter("predictd_jobs_total",
		"Async job events (optimize and explore): submitted, coalesced, cache_hit, completed, failed.",
		"event")
	s.metrics.GaugeFunc("predictd_jobs_active",
		"Async jobs currently running (optimize searches and explore sweeps).",
		func() float64 { return float64(s.jobs.active.Load()) })
	rcStat := func(f func(resultcache.Stats) int64) func() float64 {
		return func() float64 {
			if s.results == nil {
				return 0
			}
			return float64(f(s.results.Stats()))
		}
	}
	s.metrics.GaugeFunc("predictd_result_cache_hits",
		"Cumulative hits in the content-addressed result cache (0 when disabled).",
		rcStat(func(st resultcache.Stats) int64 { return st.Hits }))
	s.metrics.GaugeFunc("predictd_result_cache_misses",
		"Cumulative misses in the content-addressed result cache (0 when disabled).",
		rcStat(func(st resultcache.Stats) int64 { return st.Misses }))
	s.metrics.GaugeFunc("predictd_result_cache_entries",
		"Response bodies currently held by the result cache.",
		rcStat(func(st resultcache.Stats) int64 { return st.Entries }))
	s.metrics.GaugeFunc("predictd_result_cache_bytes",
		"Bytes (payload + bookkeeping overhead) held by the result cache.",
		rcStat(func(st resultcache.Stats) int64 { return st.Bytes }))
	s.metrics.GaugeFunc("predictd_result_cache_evictions",
		"Cumulative result-cache entries evicted to respect the byte budget.",
		rcStat(func(st resultcache.Stats) int64 { return st.Evictions }))
	memoStats := func(memo string) lru.Stats {
		if memo == "program" {
			return s.programs.Stats()
		}
		return s.targets.Stats()
	}
	memos := []string{"program", "target"}
	s.metrics.GaugeFuncVec("predictd_front_memo_hits",
		"Cumulative request front-end memo hits: program texts keyed and targets resolved without parsing or building.",
		"memo", memos, func(m string) float64 { return float64(memoStats(m).Hits) })
	s.metrics.GaugeFuncVec("predictd_front_memo_misses",
		"Cumulative request front-end memo misses: program texts parsed and targets built.",
		"memo", memos, func(m string) float64 { return float64(memoStats(m).Misses) })
	s.metrics.GaugeFuncVec("predictd_front_memo_evictions",
		"Cumulative request front-end memo entries evicted to respect the entry bound.",
		"memo", memos, func(m string) float64 { return float64(memoStats(m).Evictions) })
}

// Results exposes the result cache (nil when disabled); the binary's
// snapshot boot/drain path and the e2e suite use it directly.
func (s *Server) Results() *resultcache.Cache { return s.results }

// Handler returns the fully wired handler stack.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics exposes the registry (the binary's shutdown path and tests
// scrape it directly).
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// SetDraining flips /readyz to 503 so load balancers stop routing new
// work while in-flight requests finish; call it just before
// http.Server.Shutdown.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// endpoint wraps one API handler with the middleware stack: request
// and latency metrics on every exit path, and panic isolation. A POST
// endpoint also gets, in order, the method gate, admission (shed at
// capacity), in-flight accounting, the per-request deadline and the
// body cap. Other methods (the job poll) skip those deliberately — a
// client watching a job must not compete with (or be shed by) the
// compute traffic, and the poll reads in-memory state without
// touching the request body.
func (s *Server) endpoint(method, name string, fn func(r *http.Request) (any, *apiError)) http.Handler {
	post := method == http.MethodPost
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		code := 0
		defer func() {
			s.reqs.With(name, strconv.Itoa(code)).Inc()
			s.lat.With(name).Observe(time.Since(start).Seconds())
		}()
		if post {
			if r.Method != http.MethodPost {
				code = statusMethodNotAllow
				w.Header().Set("Allow", http.MethodPost)
				s.writeError(w, code, CodeMethodNotAllowed, "use POST")
				return
			}
			select {
			case s.sem <- struct{}{}:
			default:
				s.shed.With(name).Inc()
				code = statusUnavailable
				// Shedding is a transient burst condition: steer
				// retries to after the in-flight work drains instead
				// of an immediate hammer.
				w.Header().Set("Retry-After", "1")
				s.writeError(w, code, CodeOverloaded, "server at capacity, retry later")
				return
			}
			s.inflight.Add(1)
			defer func() {
				s.inflight.Add(-1)
				<-s.sem
			}()
			ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
			defer cancel()
			r = r.WithContext(ctx)
			r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		}
		defer func() {
			if p := recover(); p != nil {
				s.panics.With().Inc()
				code = statusInternalFailure
				s.writeError(w, code, CodeInternal,
					fmt.Sprintf("handler panic: %v", p))
				debug.PrintStack()
			}
		}()
		resp, aerr := fn(r)
		if aerr != nil {
			code = aerr.status
			s.writeError(w, aerr.status, aerr.code, aerr.msg)
			return
		}
		code = writeSuccess(w, resp)
	})
}

// writeSuccess renders a handler's success value: pre-encoded bytes
// from the result cache verbatim, a statusResponse with its chosen
// code (e.g. 202 for accepted jobs), anything else as a 200 through
// the single marshalBody encoder. Returns the status written.
func writeSuccess(w http.ResponseWriter, resp any) int {
	w.Header().Set("Content-Type", "application/json")
	switch v := resp.(type) {
	case rawResponse:
		w.Write(v)
		return http.StatusOK
	case statusResponse:
		w.WriteHeader(v.status)
		w.Write(marshalBody(v.body))
		return v.status
	default:
		w.Write(marshalBody(resp))
		return http.StatusOK
	}
}

// ctxError maps a context failure observed by a handler to the
// response the client sees: a deadline is 504; a client that went
// away gets nothing, but the metrics label records 499.
func ctxError(err error) *apiError {
	if errors.Is(err, context.DeadlineExceeded) {
		return &apiError{status: statusGatewayTimeout, code: CodeDeadlineExceeded,
			msg: "request deadline exceeded"}
	}
	return &apiError{status: statusClientClosed, code: codeClientClosed,
		msg: "client closed request"}
}

func (s *Server) writeError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(marshalBody(ErrorResponse{Error: ErrorBody{Code: code, Message: msg}}))
}

// marshalBody renders every response body the service sends — one
// encoder, so the e2e suite can byte-compare server output against
// the same structures built from direct library calls.
func marshalBody(v any) []byte {
	out, err := json.Marshal(v)
	if err != nil {
		// Response types are plain data; failure is a programming bug.
		panic("serve: marshal response: " + err.Error())
	}
	return append(out, '\n')
}
