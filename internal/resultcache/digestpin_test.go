package resultcache_test

import (
	"testing"

	"perfpredict/internal/resultcache"
	"perfpredict/internal/source"
)

// digestPinSrc is a small program whose FingerprintProgram value is
// pinned below.
const digestPinSrc = `
program pin
  integer i, j, n
  real a(8,8), s
  do i = 1, n
    do j = 1, n
      a(i,j) = a(i,j) + s
    end do
    if (i .gt. 2) then
      s = s * 2.0
    end if
  end do
end
`

// TestKeyTagsPinProgramDigest pins the program digest every result
// cache key tag was versioned for. Cached responses are keyed by
// FingerprintProgram, so a snapshot written under one digest
// definition must miss under another: when this digest changes, bump
// the version of every tag that mixes a program digest (predict,
// batch, optimize, explain, explore) and update both pins. The tags
// below are the versions introduced with Merkle statement digests.
func TestKeyTagsPinProgramDigest(t *testing.T) {
	prog, err := source.Parse(digestPinSrc)
	if err != nil {
		t.Fatal(err)
	}
	const wantDigest = "bb382c17a70b5422e27513f151b1b353"
	if got := source.FingerprintProgram(prog).String(); got != wantDigest {
		t.Fatalf("FingerprintProgram = %s, pinned %s: the digest changed, so bump every program-keyed tag in key.go and re-pin", got, wantDigest)
	}

	fp := source.FingerprintProgram(prog)
	mach := source.Fingerprint{Hi: 7, Lo: 11}
	tag := func(s string) source.Fingerprint { return source.Fingerprint{}.MixString(s) }
	raw := func(f source.Fingerprint) resultcache.Key { return resultcache.Key{Hi: f.Hi, Lo: f.Lo} }
	cases := []struct {
		name      string
		got, want resultcache.Key
	}{
		{"predict", resultcache.PredictKey(fp, mach, nil),
			raw(tag("resultcache/predict/v3").Mix(fp).Mix(mach).MixUint64(0))},
		{"batch", resultcache.BatchKey([]source.Fingerprint{fp}, mach, nil),
			raw(tag("resultcache/batch/v3").MixUint64(1).Mix(fp).Mix(mach).MixUint64(0))},
		{"optimize", resultcache.OptimizeKey(fp, mach, nil, 0, 0),
			raw(tag("resultcache/optimize/v4").Mix(fp).Mix(mach).MixUint64(0).MixUint64(0).MixUint64(0))},
		{"explain", resultcache.ExplainKey(fp, mach, nil, false),
			raw(tag("resultcache/explain/v2").Mix(fp).Mix(mach).MixUint64(0).MixUint64(0))},
		{"explore", resultcache.ExploreKey(mach, []source.Fingerprint{fp}, nil, 0),
			raw(tag("resultcache/explore/v2").Mix(mach).MixUint64(1).Mix(fp).MixUint64(0).MixUint64(0))},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s key is not built from its pinned tag version", c.name)
		}
	}
}
