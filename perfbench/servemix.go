package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"perfpredict"
	"perfpredict/internal/aggregate"
	"perfpredict/internal/machine"
	"perfpredict/internal/progen"
	"perfpredict/internal/resultcache"
	"perfpredict/internal/serve"
	"perfpredict/internal/source"
)

const (
	// serveMixRate is the nominal requests per second of serve-mix.
	serveMixRate = 10000
	// serveClients is the number of closed-loop clients (nproc).
	serveClients = 2
	// missShare is the share of timed requests carrying a never-seen
	// program.
	missShare = 0.1
	// missSeedBase keeps generated programs clear of the corpus, which
	// was generated from seeds 1 to 50.
	missSeedBase = int64(1) << 40
	// missVerifyEvery: one miss in this many is recomputed through the
	// library after the phase; every miss is checked for status and
	// shape.
	missVerifyEvery = 10
	// replayRequests is how many requests of the sequence the traced
	// run replays layer by layer.
	replayRequests = 3000
)

// serveMix drives the predictd handler in process: two closed-loop
// clients call ServeHTTP with a fixed, seeded sequence of /v1/predict,
// /v1/batch and /v1/explain requests. Nine in ten hit the hot set the
// warm pass filled; one in ten carries a new generated program.
type serveMix struct {
	opt     options
	srv     *serve.Server
	handler http.Handler
	specRaw json.RawMessage
	p1mem   *perfpredict.Target
	hot     []hotReq
	// seq is the timed sequence: an index into hot, or -1-i for
	// misses[i].
	seq    []int32
	misses []missReq
	// problems collects warm-pass check failures.
	problems []string
	tc       counts
}

// hotReq is one request of the hot set.
type hotReq struct {
	kind, machine string // kind: predict, batch or explain; machine "" = inline spec
	progs         []corpusProg
	body          []byte
	first         []byte // body of the warm-pass response
}

// missReq is a request with generated programs, shaped like hot[tmpl].
// Its programs are regenerated from seed when needed again, so the
// benchmark's own inputs do not stay in the live heap.
type missReq struct {
	tmpl int32
	seed int64
	body []byte // released once sent
	resp []byte // kept for one miss in missVerifyEvery
}

var missConfig = progen.ProgramConfig{AllowIf: true, AllowSubroutine: true}

// srcs generates the miss's programs.
func (w *serveMix) srcs(m *missReq) []string {
	out := make([]string, len(w.hot[m.tmpl].progs))
	for j := range out {
		out[j] = progen.GenProgram(progen.NewRand(m.seed+int64(j)), missConfig)
	}
	return out
}

func (w *serveMix) latency(st *phaseStats) (p50, p99 float64) { return pooled(st.lat) }

func (w *serveMix) setup(l *spanLog) error {
	corpus, err := loadCorpus()
	if err != nil {
		return err
	}
	w.p1mem, w.specRaw, err = loadSpec(l, power1memPath)
	if err != nil {
		return err
	}
	w.srv = serve.New(serve.Config{Workers: 1})
	w.handler = w.srv.Handler()

	r := rand.New(rand.NewSource(w.opt.seed))
	w.hot = w.hot[:0]
	for _, c := range corpus {
		for _, m := range []string{"POWER1", "SuperScalar2", "Scalar1", ""} {
			w.hot = append(w.hot, hotReq{kind: "predict", machine: m, progs: []corpusProg{c}})
		}
		w.hot = append(w.hot, hotReq{kind: "explain", machine: "POWER1", progs: []corpusProg{c}})
	}
	perm := r.Perm(len(corpus))
	for b := 0; b+5 <= len(perm); b += 5 {
		h := hotReq{kind: "batch", machine: []string{"POWER1", "SuperScalar2"}[b/5%2]}
		for _, i := range perm[b : b+5] {
			h.progs = append(h.progs, corpus[i])
		}
		w.hot = append(w.hot, h)
	}
	w.problems = w.problems[:0]
	rec := newRecorder()
	for i := range w.hot {
		h := &w.hot[i]
		srcs := make([]string, len(h.progs))
		for j, p := range h.progs {
			srcs[j] = p.src
		}
		if h.body, err = w.requestBody(h.kind, h.machine, srcs); err != nil {
			return err
		}
		rec.reset()
		w.handler.ServeHTTP(rec, post(h.kind, h.body))
		h.first = bytes.Clone(rec.body.Bytes())
		if err := w.checkHot(h, rec); err != nil {
			w.problems = append(w.problems, fmt.Sprintf("serve-mix warm %s %s on %q: %v", h.kind, h.progs[0].name, h.machine, err))
		}
	}

	n := w.opt.seconds * serveMixRate
	w.seq = make([]int32, 0, n)
	w.misses = w.misses[:0]
	for i := 0; i < n; i++ {
		t := int32(r.Intn(len(w.hot)))
		if r.Float64() >= missShare {
			w.seq = append(w.seq, t)
			continue
		}
		m := missReq{tmpl: t, seed: missSeedBase + w.opt.seed<<24 + int64(len(w.misses))<<3}
		if m.body, err = w.requestBody(w.hot[t].kind, w.hot[t].machine, w.srcs(&m)); err != nil {
			return err
		}
		w.seq = append(w.seq, int32(-1-len(w.misses)))
		w.misses = append(w.misses, m)
	}
	return nil
}

func (w *serveMix) requestBody(kind, mach string, srcs []string) ([]byte, error) {
	var spec json.RawMessage
	if mach == "" {
		spec = w.specRaw
	}
	switch kind {
	case "predict":
		return json.Marshal(serve.PredictRequest{Source: srcs[0], Machine: mach, Spec: spec})
	case "explain":
		return json.Marshal(serve.ExplainRequest{Source: srcs[0], Machine: mach, Spec: spec, SkipWhatIf: true})
	default:
		return json.Marshal(serve.BatchRequest{Sources: srcs, Machine: mach, Spec: spec})
	}
}

func post(kind string, body []byte) *http.Request {
	req, err := http.NewRequestWithContext(context.Background(), http.MethodPost, "/v1/"+kind, bytes.NewReader(body))
	if err != nil {
		panic(err) // constant method and path
	}
	return req
}

// checkHot checks a warm-pass response against the corpus goldens.
func (w *serveMix) checkHot(h *hotReq, rec *recorder) error {
	if rec.code != http.StatusOK {
		return fmt.Errorf("status %d: %s", rec.code, rec.body.Bytes())
	}
	golden := func(p corpusProg) string {
		if h.machine == "" {
			return p.golden["POWER1"] // Cost − Memory on POWER1-MEM
		}
		return p.golden[h.machine]
	}
	switch h.kind {
	case "predict":
		var resp serve.PredictResponse
		if err := json.Unmarshal(rec.body.Bytes(), &resp); err != nil {
			return err
		}
		got := resp.Cost
		if h.machine == "" {
			got = resp.InCore
		}
		if want := golden(h.progs[0]); got != want {
			return fmt.Errorf("cost %q, golden %q", got, want)
		}
	case "explain":
		var rep perfpredict.ExplainReport
		if err := json.Unmarshal(rec.body.Bytes(), &rep); err != nil {
			return err
		}
		if got, want := rep.Summary(), h.progs[0].explain[h.machine]; got != want {
			return fmt.Errorf("explain digest %q, golden %q", got, want)
		}
	case "batch":
		var resp serve.BatchResponse
		if err := json.Unmarshal(rec.body.Bytes(), &resp); err != nil {
			return err
		}
		for i, p := range h.progs {
			if resp.Results[i].Cost != golden(p) {
				return fmt.Errorf("%s: cost %q, golden %q", p.name, resp.Results[i].Cost, golden(p))
			}
		}
	}
	return nil
}

// checkMiss checks a miss response's status and shape.
func checkMiss(kind string, srcs int, rec *recorder) error {
	if rec.code != http.StatusOK {
		return fmt.Errorf("status %d: %s", rec.code, rec.body.Bytes())
	}
	switch kind {
	case "predict":
		var resp serve.PredictResponse
		if err := json.Unmarshal(rec.body.Bytes(), &resp); err != nil || resp.Cost == "" {
			return fmt.Errorf("malformed predict body (%v): %s", err, rec.body.Bytes())
		}
	case "explain":
		var rep perfpredict.ExplainReport
		if err := json.Unmarshal(rec.body.Bytes(), &rep); err != nil || rep.Machine == "" {
			return fmt.Errorf("malformed explain body (%v): %s", err, rec.body.Bytes())
		}
	case "batch":
		var resp serve.BatchResponse
		if err := json.Unmarshal(rec.body.Bytes(), &resp); err != nil || len(resp.Results) != srcs {
			return fmt.Errorf("malformed batch body (%v): %s", err, rec.body.Bytes())
		}
		for _, it := range resp.Results {
			if it.Cost == "" {
				return fmt.Errorf("batch item without cost: %s", rec.body.Bytes())
			}
		}
	}
	return nil
}

func (w *serveMix) phase(tr *tracer) *phaseStats {
	var before map[string]float64
	var rcBefore resultcache.Stats
	if tr != nil {
		w.tc = counts{}
		before = w.scrape()
		rcBefore = w.srv.Results().Stats()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	st := newPhaseStats(len(w.seq))
	for g := 0; g < serveClients; g++ {
		l := tr.log()
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := newRecorder()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(w.seq) {
					return
				}
				w.request(l, rec, st, i)
			}
		}()
	}
	wg.Wait()
	if tr != nil {
		after := w.scrape()
		for _, k := range []string{"predictd_seg_cache_hits", "predictd_seg_cache_misses", "predictd_singleflight_shared_total"} {
			w.tc[k] = after[k] - before[k]
		}
		rc := w.srv.Results().Stats()
		w.tc["rc_hits"] = float64(rc.Hits - rcBefore.Hits)
		w.tc["rc_misses"] = float64(rc.Misses - rcBefore.Misses)
		w.tc["rc_bytes"] = float64(rc.Bytes)
		w.tc["rc_evictions"] = float64(rc.Evictions)
	}
	return st
}

// request sends seq[i] and checks the response.
func (w *serveMix) request(l *spanLog, rec *recorder, st *phaseStats, i int) {
	idx := w.seq[i]
	name, kind, body := "serve.hit", "", []byte(nil)
	var m *missReq
	if idx >= 0 {
		kind, body = w.hot[idx].kind, w.hot[idx].body
	} else {
		m = &w.misses[-1-idx]
		name, kind, body = "serve.miss", w.hot[m.tmpl].kind, m.body
	}
	req := post(kind, body)
	rec.reset()
	t0, c0 := time.Now(), readThreadClock()
	s := l.begin(name, -1, int32(i))
	w.handler.ServeHTTP(rec, req)
	l.end(s)
	st.recordThread(i, 0, t0, c0)
	if m == nil {
		if rec.code != http.StatusOK || !bytes.Equal(rec.body.Bytes(), w.hot[idx].first) {
			st.fail("serve-mix hit %s %s: status %d, body differs from the first response", kind, w.hot[idx].progs[0].name, rec.code)
		}
		return
	}
	m.body = nil // sent; a replay rebuilds it
	if err := checkMiss(kind, len(w.hot[m.tmpl].progs), rec); err != nil {
		st.fail("serve-mix miss %s: %v", kind, err)
	}
	if (-1-idx)%missVerifyEvery == 0 {
		m.resp = bytes.Clone(rec.body.Bytes())
	}
}

// verify reports warm-pass failures and recomputes the sampled misses
// through the library.
func (w *serveMix) verify() []string {
	out := append([]string(nil), w.problems...)
	for i := 0; i < len(w.misses); i += missVerifyEvery {
		m := &w.misses[i]
		if m.resp == nil {
			continue // not sent
		}
		if err := w.verifyMiss(m); err != nil {
			out = append(out, fmt.Sprintf("serve-mix miss %d: %v", i, err))
		}
		m.resp = nil
	}
	return out
}

func (w *serveMix) target(mach string) (*perfpredict.Target, error) {
	if mach == "" {
		return w.p1mem, nil
	}
	return machine.Lookup(mach)
}

func (w *serveMix) verifyMiss(m *missReq) error {
	h := &w.hot[m.tmpl]
	t, err := w.target(h.machine)
	if err != nil {
		return err
	}
	srcs := w.srcs(m)
	switch h.kind {
	case "explain":
		var got perfpredict.ExplainReport
		if err := json.Unmarshal(m.resp, &got); err != nil {
			return err
		}
		rep, err := perfpredict.ExplainCtx(context.Background(), srcs[0], t, perfpredict.ExplainOptions{SkipWhatIf: true})
		if err != nil {
			return err
		}
		if got.Summary() != rep.Summary() || got.Cycles != rep.Cycles {
			return fmt.Errorf("explain %q, library %q", got.Summary(), rep.Summary())
		}
		return nil
	case "predict":
		var got serve.PredictResponse
		if err := json.Unmarshal(m.resp, &got); err != nil {
			return err
		}
		return matchCost(srcs[0], t, got.Cost)
	default:
		var got serve.BatchResponse
		if err := json.Unmarshal(m.resp, &got); err != nil {
			return err
		}
		for j, src := range srcs {
			if err := matchCost(src, t, got.Results[j].Cost); err != nil {
				return err
			}
		}
		return nil
	}
}

func matchCost(src string, t *perfpredict.Target, got string) error {
	p, err := perfpredict.Predict(src, t)
	if err != nil {
		return err
	}
	if want := p.Cost.String(); got != want {
		return fmt.Errorf("cost %q, library %q", got, want)
	}
	return nil
}

// scrape reads the server's /metrics counters.
func (w *serveMix) scrape() map[string]float64 {
	req, err := http.NewRequest(http.MethodGet, "/metrics", nil)
	if err != nil {
		panic(err)
	}
	rec := newRecorder()
	w.handler.ServeHTTP(rec, req)
	out := map[string]float64{}
	sc := bufio.NewScanner(&rec.body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && !strings.HasPrefix(f[0], "#") {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				out[f[0]] = v
			}
		}
	}
	return out
}

// replay re-issues, for the first replayRequests requests of the
// sequence, the public calls the handler makes: JSON decoding,
// machine resolution, parse and fingerprint for the key, the key
// itself, a result-cache probe, and on a miss the pipeline, the
// response encoding and the insert. The result cache and segment
// cache here are shadows filled by the same calls.
func (w *serveMix) replay(l *spanLog, c counts) error {
	shadow := resultcache.New(0)
	seg := aggregate.NewSegCache()
	for i := range w.hot {
		key, err := w.replayKey(nil, -1, w.hot[i].kind, w.hot[i].body)
		if err != nil {
			return err
		}
		shadow.Put(key, w.hot[i].first)
	}
	for i, idx := range w.seq[:min(len(w.seq), replayRequests)] {
		id := int32(i)
		if idx >= 0 {
			h := &w.hot[idx]
			root := l.begin("replay.hit", -1, id)
			key, err := w.replayKey(l, root, h.kind, h.body)
			if err != nil {
				return err
			}
			s := l.begin("resultcache.get", root, id)
			_, ok := shadow.Get(key)
			l.end(s)
			l.end(root)
			if !ok {
				return fmt.Errorf("replayed hit %d missed the shadow cache", i)
			}
			continue
		}
		m := &w.misses[-1-idx]
		h := &w.hot[m.tmpl]
		srcs := w.srcs(m)
		body, err := w.requestBody(h.kind, h.machine, srcs)
		if err != nil {
			return err
		}
		key, err := w.replayKey(l, -1, h.kind, body)
		if err != nil {
			return err
		}
		s := l.begin("resultcache.get", -1, id)
		shadow.Get(key)
		l.end(s)
		t, err := w.target(h.machine)
		if err != nil {
			return err
		}
		var resp any
		switch h.kind {
		case "explain":
			s = l.begin("explain.report", -1, id)
			resp, err = perfpredict.ExplainCtx(context.Background(), srcs[0], t, perfpredict.ExplainOptions{SkipWhatIf: true})
			l.end(s)
		case "predict":
			var res aggregate.Result
			res, err = replayProgram(l, c, id, srcs[0], t, seg)
			resp = serve.PredictResponse{Machine: t.Name, Cost: res.Cost.String()}
			if err == nil && h.machine == "" {
				err = replayMemoryExtra(l, id, srcs[0], t, perfpredict.POWER1())
			}
		default:
			br := serve.BatchResponse{Machine: t.Name}
			for _, src := range srcs {
				var res aggregate.Result
				if res, err = replayProgram(l, c, id, src, t, seg); err != nil {
					break
				}
				br.Results = append(br.Results, serve.BatchItem{Cost: res.Cost.String()})
			}
			resp = br
		}
		if err != nil {
			return err
		}
		s = l.begin("serve.marshal", -1, id)
		out, err := json.Marshal(resp)
		l.end(s)
		if err != nil {
			return err
		}
		s = l.begin("resultcache.put", -1, id)
		shadow.Put(key, out)
		l.end(s)
	}
	return nil
}

// replayKey replays the handler's steps up to the cache key: decode,
// resolve the machine, parse and fingerprint each source, build the
// key.
func (w *serveMix) replayKey(l *spanLog, parent int32, kind string, body []byte) (resultcache.Key, error) {
	var (
		srcs []string
		mach string
		spec json.RawMessage
		pr   serve.PredictRequest
		er   serve.ExplainRequest
		br   serve.BatchRequest
	)
	s := l.begin("serve.decode", parent, -1)
	var dst any = &pr
	switch kind {
	case "explain":
		dst = &er
	case "batch":
		dst = &br
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(dst)
	l.end(s)
	if err != nil {
		return resultcache.Key{}, err
	}
	switch kind {
	case "predict":
		srcs, mach, spec = []string{pr.Source}, pr.Machine, pr.Spec
	case "explain":
		srcs, mach, spec = []string{er.Source}, er.Machine, er.Spec
	default:
		srcs, mach, spec = br.Sources, br.Machine, br.Spec
	}
	var t *perfpredict.Target
	if len(spec) > 0 {
		t, err = buildSpec(l, spec, -1)
	} else {
		s = l.begin("machine.lookup", parent, -1)
		t, err = machine.Lookup(mach)
		l.end(s)
	}
	if err != nil {
		return resultcache.Key{}, err
	}
	fps := make([]source.Fingerprint, len(srcs))
	for i, src := range srcs {
		s = l.begin("source.parse", parent, -1)
		prog, err := source.Parse(src)
		l.end(s)
		if err != nil {
			return resultcache.Key{}, err
		}
		s = l.begin("source.fingerprint", parent, -1)
		fps[i] = source.FingerprintProgram(prog)
		l.end(s)
	}
	s = l.begin("resultcache.key", parent, -1)
	defer l.end(s)
	switch kind {
	case "predict":
		return resultcache.PredictKey(fps[0], t.Fingerprint(), pr.Args), nil
	case "explain":
		return resultcache.ExplainKey(fps[0], t.Fingerprint(), er.Nominal, er.SkipWhatIf), nil
	default:
		return resultcache.BatchKey(fps, t.Fingerprint(), br.Args), nil
	}
}

func (w *serveMix) layers(sum map[string]spanStat, c counts, m map[string]float64) map[string]string {
	tc := w.tc
	m["resultcache.hit_ratio"] = tc["rc_hits"] / (tc["rc_hits"] + tc["rc_misses"])
	m["resultcache.bytes"] = tc["rc_bytes"]
	m["resultcache.evictions"] = tc["rc_evictions"]
	m["resultcache.singleflight_shared"] = tc["predictd_singleflight_shared_total"]
	m["aggregate.seg_hit_ratio"] = tc["predictd_seg_cache_hits"] /
		(tc["predictd_seg_cache_hits"] + tc["predictd_seg_cache_misses"])
	// Handler time of a hit minus the replayed steps a hit takes: an
	// estimate, since the handler's own calls are not observed.
	m["serve.self_us"] = sum["serve.hit"].meanUs() - sum["replay.hit"].meanChildUs()
	return map[string]string{
		"aggregate.seg_entries": "the server's segment cache is unexported; /metrics gives its hits and misses but not its size",
	}
}

// recorder is a reusable http.ResponseWriter.
type recorder struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func newRecorder() *recorder { return &recorder{header: http.Header{}} }

func (r *recorder) Header() http.Header { return r.header }

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(b []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	return r.body.Write(b)
}

func (r *recorder) reset() {
	clear(r.header)
	r.code = 0
	r.body.Reset()
}
