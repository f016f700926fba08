package serve

import (
	"encoding/json"
	"hash/maphash"

	"perfpredict"
	"perfpredict/internal/lru"
	"perfpredict/internal/machine"
	"perfpredict/internal/resultcache"
	"perfpredict/internal/source"
)

// The request front end. A prediction is a pure function of (program,
// machine), and the result cache already answers it by content
// identity — but building that identity (parse the program,
// fingerprint its AST; build the target from its spec, fingerprint
// its tables) costs more than replaying the cached bytes. The front
// end derives each identity once per distinct input instead of once
// per request:
//
//   - the target memo maps a machine name, or the raw bytes of an
//     inline spec, to the built target and its fingerprint;
//   - the program memo maps the raw text of a program to its cache
//     fingerprint.
//
// Both memos are keyed by 128-bit seeded hashes of the raw input and
// hold no request bytes. Both are bounded by fixed entry counts and
// evict the least recently used input.
// Sharing one built target across concurrent requests is sound
// because the library treats targets as read-only. Memoising a name
// forever is sound because registry names are write-once
// (machine.Registry.Register refuses duplicates). Failed resolutions
// are not memoised.

const (
	// maxProgramMemo bounds the program memo's entries (32 bytes of
	// key and value each).
	maxProgramMemo = 4096
	// maxTargetMemo bounds the target memo's entries. Each holds a
	// built machine, so the bound is far smaller.
	maxTargetMemo = 32
)

// memoKey is a 128-bit content hash of a raw request input.
type memoKey [2]uint64

// hasher computes memoKeys under two per-server random seeds, so
// colliding inputs cannot be prepared ahead of time.
type hasher struct{ lo, hi maphash.Seed }

func newHasher() hasher { return hasher{maphash.MakeSeed(), maphash.MakeSeed()} }

func (h hasher) str(s string) memoKey {
	return memoKey{maphash.String(h.lo, s), maphash.String(h.hi, s)}
}

func (h hasher) bytes(b []byte) memoKey {
	return memoKey{maphash.Bytes(h.lo, b), maphash.Bytes(h.hi, b)}
}

// newMemo builds one front-end memo: an lru.Cache bounded to bound
// entries in a single shard, so eviction is exact LRU over the whole
// memo. Lookups cost far less than the parse or build they save, so
// striping would buy nothing.
func newMemo[K comparable, V any](bound int) *lru.Cache[K, V] {
	return lru.New(lru.Config[K, V]{Budget: int64(bound)})
}

// targetKey names a target input: a machine name, or the raw bytes
// of an inline spec.
type targetKey struct {
	inline bool
	hash   memoKey
}

// resolved is a request's target with its content fingerprint, the
// machine half of every result-cache key.
type resolved struct {
	target *perfpredict.Target
	fp     source.Fingerprint
}

// resolveTarget picks the request's target: an inline spec when
// given (parsed and strictly validated, 422 on any violation),
// otherwise a registered machine name (404 when absent; default
// POWER1). Naming both is a request-shape error. Inline-spec machines
// share the warm caches safely — every cache key includes the machine
// content fingerprint.
func (s *Server) resolveTarget(name string, spec json.RawMessage) (resolved, *apiError) {
	var key targetKey
	if len(spec) > 0 {
		if name != "" {
			return resolved{}, errBadJSON("give machine or spec, not both")
		}
		key = targetKey{inline: true, hash: s.hash.bytes(spec)}
	} else {
		if name == "" {
			name = "POWER1"
		}
		key = targetKey{hash: s.hash.str(name)}
	}
	if r, ok := s.targets.Get(key); ok {
		return r, nil
	}
	var m *perfpredict.Target
	if key.inline {
		sp, err := machine.ParseSpec(spec)
		if err != nil {
			return resolved{}, errInvalidSpec(err.Error())
		}
		if m, err = sp.Machine(); err != nil {
			return resolved{}, errInvalidSpec(err.Error())
		}
	} else {
		var err error
		if m, err = machine.Lookup(name); err != nil {
			return resolved{}, errUnknownMachine(err.Error())
		}
	}
	r := resolved{target: m, fp: m.Fingerprint()}
	s.targets.Put(key, r)
	return r, nil
}

// programFP is the program half of a cache key: the structural AST
// fingerprint when the source parses (formatting variants share an
// entry — sound because responses never echo raw request text), or a
// fingerprint of the raw text when it does not (so even per-slot
// parse-error responses in a batch stay content-addressed). Repeated
// texts are answered by the program memo without parsing.
func (s *Server) programFP(src string) source.Fingerprint {
	key := s.hash.str(src)
	if fp, ok := s.programs.Get(key); ok {
		return fp
	}
	var fp source.Fingerprint
	if prog, err := source.Parse(src); err == nil {
		fp = source.FingerprintProgram(prog)
	} else {
		fp = resultcache.SourceKey(src)
	}
	s.programs.Put(key, fp)
	return fp
}
