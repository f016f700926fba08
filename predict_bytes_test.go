package perfpredict

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// predictBytesBound is the most bytes one cold prediction (PredictCtx
// and rendering its cost) may allocate on average over the 50 corpus
// programs on POWER1: 9.07–9.49 KB measured (the spread is GC emptying
// sync.Pool) plus 10% headroom. A prediction that builds a translator
// of its own, instead of rebinding a pooled workspace's, allocated
// 19.3–19.6 KB; copying every translator pass out of its scratch into a
// private lowering memo put the figure at 25.5–25.8 KB.
const predictBytesBound = 10400

// TestPredictBytesFloor pins the allocation floor of a cold
// prediction. Under -race, sync.Pool drops pooled scratch at random
// and the detector adds its own allocations, so the race build checks
// only that every prediction succeeds and logs the figure.
func TestPredictBytesFloor(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "corpus", "programs", "*.f"))
	if err != nil || len(files) != 50 {
		t.Fatalf("corpus: %v (%d programs, want 50)", err, len(files))
	}
	srcs := make([]string, len(files))
	for i, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		srcs[i] = string(b)
	}
	target, err := LoadTarget("POWER1")
	if err != nil {
		t.Fatal(err)
	}
	pass := func() {
		for _, src := range srcs {
			p, err := PredictCtx(context.Background(), src, target, PredictOptions{})
			if err != nil {
				t.Fatal(err)
			}
			_ = p.Cost.String()
		}
	}
	pass() // warm: first-use tables and pools
	const rounds = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range rounds {
		pass()
	}
	runtime.ReadMemStats(&after)
	perPred := float64(after.TotalAlloc-before.TotalAlloc) / float64(rounds*len(srcs))
	t.Logf("%.0f bytes per prediction (bound %d)", perPred, predictBytesBound)
	if !raceEnabled && perPred > predictBytesBound {
		t.Errorf("a cold prediction allocates %.0f bytes on average, above the %d-byte floor", perPred, predictBytesBound)
	}
}
