package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"perfpredict/internal/lru"
	"perfpredict/internal/resultcache"
)

// Async jobs: POST /v1/optimize?async=1 (ids "opt-…") and POST
// /v1/explore?async=1 (ids "exp-…") — the routes with a job prefix —
// prepare the request synchronously (a malformed request fails with
// the same status a sync call would, before any job exists), then
// return 202 with a job id; GET /v1/jobs/{id} polls progress. The job
// runs the route's prepared work, as the sync path does — same warm
// caches, same bounds — and lands its encoded response body in the
// result cache under the same content-addressed key, so a later sync
// request for the same work is a byte-identical cache hit.
//
// Lifecycle: pending (accepted, waiting for a job slot) → running
// (work executing; explored live, plus best_cost for searches) →
// done | failed.
// Terminal states are final; finished jobs are retained up to
// maxFinishedJobs, and the least recently polled is forgotten first
// (polling a forgotten or never issued id is 404 unknown_job).
// Submissions whose key matches an unfinished job coalesce onto it —
// N identical submissions share one search — and a submission whose
// result is already cached is born done.

const (
	jobPending = "pending"
	jobRunning = "running"
	jobDone    = "done"
	jobFailed  = "failed"

	// maxFinishedJobs bounds completed-job retention. Unfinished jobs
	// are never dropped.
	maxFinishedJobs = 256
)

// JobStatus is the body of GET /v1/jobs/{id} and of the 202 returned
// by an async submission.
type JobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Explored mirrors the running job's progress: nodes expanded for
	// an optimize search, lattice cells evaluated for an explore
	// sweep; absent until the job reports its first unit of work.
	// BestCost is the search's incumbent cost at the nominal point
	// (optimize jobs only).
	Explored int64    `json:"explored,omitempty"`
	BestCost *float64 `json:"best_cost,omitempty"`
	// Result is the endpoint's success body, present when State is
	// "done" — byte-identical to the body the synchronous endpoint
	// returns.
	Result json.RawMessage `json:"result,omitempty"`
	// Error is present when State is "failed".
	Error *ErrorBody `json:"error,omitempty"`
}

// job is one async execution (optimize or explore).
type job struct {
	id  string
	key resultcache.Key

	mu     sync.Mutex
	state  string
	result json.RawMessage // compact response document (no trailing newline)
	errBdy *ErrorBody

	explored atomic.Int64
	bestBits atomic.Uint64
	hasBest  atomic.Bool
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	st := JobStatus{ID: j.id, State: j.state, Result: j.result, Error: j.errBdy}
	j.mu.Unlock()
	st.Explored = j.explored.Load()
	if j.hasBest.Load() {
		v := math.Float64frombits(j.bestBits.Load())
		st.BestCost = &v
	}
	return st
}

// searchProgress is an optimize job's progress hook: nodes expanded
// so far and the incumbent cost.
func (j *job) searchProgress(explored int, best float64) {
	j.explored.Store(int64(explored))
	j.bestBits.Store(math.Float64bits(best))
	j.hasBest.Store(true)
}

// sweepProgress is an explore job's progress hook: lattice cells
// evaluated so far.
func (j *job) sweepProgress(done, _ int) { j.explored.Store(int64(done)) }

func (j *job) setState(s string) {
	j.mu.Lock()
	j.state = s
	j.mu.Unlock()
}

// jobManager owns the job table. Coalescing is keyed on the same
// content-addressed key the result cache uses.
type jobManager struct {
	mu       sync.Mutex
	running  map[string]*job          // unfinished jobs by id
	byKey    map[resultcache.Key]*job // unfinished jobs by key
	finished *lru.Cache[string, *job] // retained finished jobs by id
	seq      int64

	sem    chan struct{} // bounds concurrently *running* jobs
	active atomic.Int64  // jobs currently in "running"
	wg     sync.WaitGroup
}

func newJobManager(maxJobs int) *jobManager {
	return &jobManager{
		running:  map[string]*job{},
		byKey:    map[resultcache.Key]*job{},
		finished: lru.New(lru.Config[string, *job]{Budget: maxFinishedJobs}),
		sem:      make(chan struct{}, maxJobs),
	}
}

// get returns the job by id.
func (m *jobManager) get(id string) (*job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if j, ok := m.running[id]; ok {
		return j, true
	}
	return m.finished.Get(id)
}

// newJob registers a fresh job in the given initial state; terminal
// initial states (a cache-hit birth, carrying its result) go straight
// to the finished table, complete before any poll can find them. The
// prefix ("opt-", "exp-") marks the job's kind in its id; the
// sequence is shared, so ids are unique across kinds.
func (m *jobManager) newJob(key resultcache.Key, prefix, state string, result json.RawMessage) *job {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.seq++
	j := &job{id: fmt.Sprintf("%s%06d", prefix, m.seq), key: key, state: state, result: result}
	if state == jobDone || state == jobFailed {
		m.finished.Put(j.id, j)
	} else {
		m.running[j.id] = j
		m.byKey[key] = j
	}
	return j
}

// finish moves a job to a terminal state and applies retention.
func (m *jobManager) finish(j *job, result json.RawMessage, errBody *ErrorBody) {
	j.mu.Lock()
	if errBody != nil {
		j.state, j.errBdy = jobFailed, errBody
	} else {
		j.state, j.result = jobDone, result
	}
	j.mu.Unlock()
	m.mu.Lock()
	if m.byKey[j.key] == j {
		delete(m.byKey, j.key)
	}
	delete(m.running, j.id)
	m.finished.Put(j.id, j)
	m.mu.Unlock()
}

// submitJob is the async admission path of every route with a job
// prefix: coalesce onto an unfinished job for the same key, be born
// done on a result-cache hit, or register a pending job and run w on
// its own goroutine. submitJob and runJob own all state transitions,
// caching, retention, and metrics.
func (s *Server) submitJob(w work, prefix string) (any, *apiError) {
	key := w.key
	// Coalesce onto an unfinished job for the same work.
	s.jobs.mu.Lock()
	if j, ok := s.jobs.byKey[key]; ok {
		s.jobs.mu.Unlock()
		s.jobEvents.With("coalesced").Inc()
		return statusResponse{http.StatusAccepted, j.status()}, nil
	}
	s.jobs.mu.Unlock()

	// Work already cached: the job is born done. (The cached bytes are
	// a full response body with trailing newline; Result embeds the
	// compact document.)
	if s.results != nil {
		if b, ok := s.results.Get(key); ok {
			j := s.jobs.newJob(key, prefix, jobDone, bytes.TrimSuffix(b, []byte("\n")))
			s.jobEvents.With("cache_hit").Inc()
			return statusResponse{http.StatusAccepted, j.status()}, nil
		}
	}

	j := s.jobs.newJob(key, prefix, jobPending, nil)
	s.jobEvents.With("submitted").Inc()
	s.jobs.wg.Add(1)
	go s.runJob(j, w)
	return statusResponse{http.StatusAccepted, j.status()}, nil
}

// runJob executes one async job on its own goroutine: acquire a job
// slot, run the work under the job timeout on a background context
// (the submitting client is long gone), land the response in the
// result cache, finish.
func (s *Server) runJob(j *job, w work) {
	defer s.jobs.wg.Done()
	defer func() {
		if p := recover(); p != nil {
			s.panics.With().Inc()
			s.jobEvents.With("failed").Inc()
			s.jobs.finish(j, nil, &ErrorBody{Code: CodeInternal,
				Message: fmt.Sprintf("job panic: %v", p)})
			debug.PrintStack()
		}
	}()
	s.jobs.sem <- struct{}{}
	defer func() { <-s.jobs.sem }()
	j.setState(jobRunning)
	s.jobs.active.Add(1)
	defer s.jobs.active.Add(-1)

	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.JobTimeout)
	defer cancel()
	resp, err := w.run(ctx, j)
	if err != nil {
		// The message is the run's own error text, also for a job
		// deadline; only the code comes from the shared mapping.
		s.jobEvents.With("failed").Inc()
		s.jobs.finish(j, nil, &ErrorBody{Code: apiErrorOf(err).code, Message: err.Error()})
		return
	}
	body := marshalBody(resp)
	if s.results != nil {
		s.results.Put(j.key, body)
	}
	s.jobEvents.With("completed").Inc()
	s.jobs.finish(j, bytes.TrimSuffix(body, []byte("\n")), nil)
}

// handleJobGet serves GET /v1/jobs/{id}.
func (s *Server) handleJobGet(r *http.Request) (any, *apiError) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		return nil, errUnknownJob(r.PathValue("id"))
	}
	return j.status(), nil
}

// DrainJobs blocks until every spawned job goroutine has finished or
// ctx expires — the shutdown step between http.Server.Shutdown and
// the cache snapshot, so async results make it into the snapshot.
func (s *Server) DrainJobs(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.jobs.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
