package serve

import (
	"context"
	"errors"
)

// Serve-layer result caching. The cache stores fully encoded response
// bodies (marshalBody output), so a hit is byte-identical to a
// recomputation by construction: warmth and eviction can change
// latency, never content. Keys are built in internal/resultcache from
// content fingerprints, so two requests share an entry exactly when
// the library is guaranteed to produce the same bytes for both.
//
// Only successful (200) bodies are cached. Error responses are cheap
// to recompute and some (504 deadline, 499 client-closed) are not
// functions of the request content at all.

// rawResponse is a pre-encoded response body. endpoint() writes it
// verbatim instead of re-marshaling — the cache-hit fast path.
type rawResponse []byte

// statusResponse carries a non-200 success status (e.g. 202 for an
// accepted async job) alongside its body.
type statusResponse struct {
	status int
	body   any
}

// withResultCache answers a synchronous request for w through the
// result cache and singleflight coalescing: hit → cached bytes; miss
// → one caller computes while identical concurrent requests wait and
// share the outcome. A follower handed a shared *cancellation* error
// whose own deadline is still live retries solo — the leader's client
// going away must not fail the followers.
func (s *Server) withResultCache(ctx context.Context, w work) (any, *apiError) {
	if s.results == nil {
		return runSync(ctx, w)
	}
	if b, ok := s.results.Get(w.key); ok {
		return rawResponse(b), nil
	}
	v, err, shared := s.flights.Do(ctx, w.key, func() ([]byte, error) {
		b, aerr := s.computeAndStore(ctx, w)
		if aerr != nil {
			return nil, aerr
		}
		return b, nil
	})
	if shared {
		s.sfShared.With().Inc()
	}
	if err == nil {
		return rawResponse(v), nil
	}
	// A raw error is a context error: this follower's own ctx died
	// while waiting, or it shared the leader's.
	var aerr *apiError
	if !errors.As(err, &aerr) {
		aerr = ctxError(err)
	}
	if shared && transientStatus(aerr.status) && ctx.Err() == nil {
		// The failure was the leader's and our deadline still has
		// room: compute solo, since the flight that covered this key
		// is gone.
		if v, aerr = s.computeAndStore(ctx, w); aerr == nil {
			return rawResponse(v), nil
		}
	}
	return nil, aerr
}

// computeAndStore runs w and caches a success's encoded body.
func (s *Server) computeAndStore(ctx context.Context, w work) ([]byte, *apiError) {
	resp, aerr := runSync(ctx, w)
	if aerr != nil {
		return nil, aerr
	}
	b := marshalBody(resp)
	s.results.Put(w.key, b)
	return b, nil
}

// transientStatus reports whether an apiError is tied to the request
// that produced it (deadline, client gone) rather than to the request
// content; only those justify a solo retry after a shared failure.
func transientStatus(status int) bool {
	return status == statusGatewayTimeout || status == statusClientClosed
}
