package resultcache

import (
	"math"
	"sort"

	"perfpredict/internal/source"
)

// Key construction. The soundness argument for fp(program) ×
// fp(machine) × canonical-options keys:
//
//   - The program enters as its structural AST fingerprint
//     (source.FingerprintProgram): whitespace/formatting variants of
//     the same program share an entry. That is sound because no
//     response ever echoes raw request text — the optimize endpoint
//     returns the canonical *printed* form of a transformed AST, which
//     is a function of the structure alone.
//   - The machine enters as its content fingerprint
//     (machine.Fingerprint), which covers the name, the unit
//     inventory, dispatch width, flags and the entire cost table. Two
//     same-named machines with different tables can never alias; an
//     inline "spec" upload that is content-identical to a registered
//     target shares its entries safely.
//   - Options enter canonically: maps are folded in sorted key order,
//     and a presence bit distinguishes an absent map from an empty one
//     (an empty args map still requests evaluation). Only fields that
//     can change response bytes participate — worker counts and cache
//     handles are excluded by the library's byte-identical contract.
//
// Each builder starts from a distinct domain tag so the request kinds
// can never collide, and the tag carries a version so a change to a
// response shape, or to the program digest, invalidates old snapshots
// by construction. The current versions date from Merkle statement
// digests (TestKeyTagsPinProgramDigest pins the pairing).

// keyOf converts a folded fingerprint into a Key.
func keyOf(fp source.Fingerprint) Key { return Key{Hi: fp.Hi, Lo: fp.Lo} }

// mixFloatMap folds a map canonically: presence bit, length, then
// sorted key/value pairs (values as IEEE-754 bits, so -0 vs +0 and
// NaN payloads are distinguished exactly as evaluation sees them).
func mixFloatMap(fp source.Fingerprint, m map[string]float64, present bool) source.Fingerprint {
	if !present {
		return fp.MixUint64(0)
	}
	fp = fp.MixUint64(1).MixUint64(uint64(len(m)))
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fp = fp.MixString(k).MixUint64(math.Float64bits(m[k]))
	}
	return fp
}

// PredictKey is the identity of a single-program prediction: program
// structure × machine content × the evaluation point (args may be nil
// for "no evaluation", which differs from an empty map).
func PredictKey(prog, mach source.Fingerprint, args map[string]float64) Key {
	fp := source.Fingerprint{}.MixString("resultcache/predict/v3")
	fp = fp.Mix(prog).Mix(mach)
	fp = mixFloatMap(fp, args, args != nil)
	return keyOf(fp)
}

// BatchKey is the identity of a batch prediction: the ordered program
// fingerprints (order matters — responses are index-aligned), the
// machine, and the shared evaluation point. Worker counts are
// excluded: results are byte-identical for any worker count.
func BatchKey(progs []source.Fingerprint, mach source.Fingerprint, args map[string]float64) Key {
	fp := source.Fingerprint{}.MixString("resultcache/batch/v3")
	fp = fp.MixUint64(uint64(len(progs)))
	for _, p := range progs {
		fp = fp.Mix(p)
	}
	fp = fp.Mix(mach)
	fp = mixFloatMap(fp, args, args != nil)
	return keyOf(fp)
}

// OptimizeKey is the identity of a transformation search: program ×
// machine × the nominal point × the search bounds. Zero bounds (the
// library defaults) key differently from their explicit equivalents —
// a harmless hit-rate loss, never an aliasing risk. Worker counts and
// warm-cache handles are excluded: search trajectories are
// cache-state independent by the library's contract.
func OptimizeKey(prog, mach source.Fingerprint, nominal map[string]float64, maxNodes, maxDepth int) Key {
	fp := source.Fingerprint{}.MixString("resultcache/optimize/v4")
	fp = fp.Mix(prog).Mix(mach)
	fp = mixFloatMap(fp, nominal, nominal != nil)
	fp = fp.MixUint64(uint64(int64(maxNodes))).MixUint64(uint64(int64(maxDepth)))
	return keyOf(fp)
}

// ExplainKey is the identity of an explain diagnosis: program ×
// machine × the nominal point × whether the one-more-pipe what-if is
// included. Like OptimizeKey, nothing else can change response bytes —
// the diagnosis reads finished placements and never depends on cache
// state or concurrency.
func ExplainKey(prog, mach source.Fingerprint, nominal map[string]float64, skipWhatIf bool) Key {
	fp := source.Fingerprint{}.MixString("resultcache/explain/v2")
	fp = fp.Mix(prog).Mix(mach)
	fp = mixFloatMap(fp, nominal, nominal != nil)
	var skip uint64
	if skipWhatIf {
		skip = 1
	}
	fp = fp.MixUint64(skip)
	return keyOf(fp)
}

// ExploreKey is the identity of a design-space sweep: the machine
// template's content fingerprint (base resolved, so naming a
// registered machine and inlining the identical spec share entries),
// the ordered kernel fingerprints (order matters — cost vectors are
// index-aligned), the evaluation point, and the cost target. Worker
// counts, cache handles, and progress hooks are excluded: sweeps are
// deterministic and cache-state independent by the library's
// contract.
func ExploreKey(tpl source.Fingerprint, kernels []source.Fingerprint, args map[string]float64, target float64) Key {
	fp := source.Fingerprint{}.MixString("resultcache/explore/v2")
	fp = fp.Mix(tpl)
	fp = fp.MixUint64(uint64(len(kernels)))
	for _, k := range kernels {
		fp = fp.Mix(k)
	}
	fp = mixFloatMap(fp, args, args != nil)
	fp = fp.MixUint64(math.Float64bits(target))
	return keyOf(fp)
}

// SourceKey fingerprints raw program text that failed to parse, so
// even per-slot error responses stay content-addressed (two batches
// containing the same broken source share the same key).
func SourceKey(src string) source.Fingerprint {
	return source.Fingerprint{}.MixString("resultcache/rawsrc/v1").MixString(src)
}
