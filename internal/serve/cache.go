package serve

import (
	"errors"
	"net/http"

	"perfpredict/internal/resultcache"
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

// withResultCache fronts one handler computation with the result
// cache and singleflight coalescing: hit → cached bytes; miss → one
// caller computes while identical concurrent requests wait and share
// the outcome. A follower handed a shared *cancellation* error whose
// own deadline is still live retries solo — the leader's client going
// away must not fail the followers.
func (s *Server) withResultCache(r *http.Request, key resultcache.Key, compute func() (any, *apiError)) (any, *apiError) {
	if s.results == nil {
		return compute()
	}
	if b, ok := s.results.Get(key); ok {
		return rawResponse(b), nil
	}
	v, err, shared := s.flights.Do(r.Context(), key, func() ([]byte, error) {
		resp, aerr := compute()
		if aerr != nil {
			return nil, aerr
		}
		b := marshalBody(resp)
		s.results.Put(key, b)
		return b, nil
	})
	if shared {
		s.sfShared.With().Inc()
	}
	if err == nil {
		return rawResponse(v), nil
	}
	var aerr *apiError
	if errors.As(err, &aerr) {
		if shared && transientStatus(aerr.status) && r.Context().Err() == nil {
			return s.soloCompute(key, compute)
		}
		return nil, aerr
	}
	// A raw context error: either this follower's own ctx died while
	// waiting, or it shared the leader's. Retry solo when it is the
	// latter and our deadline still has room.
	if shared && r.Context().Err() == nil {
		return s.soloCompute(key, compute)
	}
	return nil, ctxError(err)
}

// soloCompute is the follower's fallback after a shared cancellation:
// run the computation directly (no coalescing — the flight that
// covered this key is gone) and cache a success normally.
func (s *Server) soloCompute(key resultcache.Key, compute func() (any, *apiError)) (any, *apiError) {
	resp, aerr := compute()
	if aerr != nil {
		return nil, aerr
	}
	b := marshalBody(resp)
	s.results.Put(key, b)
	return rawResponse(b), nil
}

// transientStatus reports whether an apiError is tied to the request
// that produced it (deadline, client gone) rather than to the request
// content; only those justify a solo retry after a shared failure.
func transientStatus(status int) bool {
	return status == statusGatewayTimeout || status == statusClientClosed
}
