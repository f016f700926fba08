package interp

import (
	"encoding/json"
	"os"
	"testing"

	"perfpredict/internal/kernels"
	"perfpredict/internal/machine"
)

const cyclesGolden = "testdata/cycles_golden.json"

// TestKernelCyclesGolden: the simulated cycle count of every kernel on
// POWER1, SuperScalar2 and Scalar1 at the kernel's default arguments
// equals the count recorded in testdata/cycles_golden.json, exactly.
// The counts are the reference the predictor's accuracy is measured
// against, so a change to the interpreter, the lowering or the
// pipeline simulator that moves one must mean to. On a mismatch the
// test prints the full replacement table.
func TestKernelCyclesGolden(t *testing.T) {
	got := map[string]int64{}
	for _, k := range kernels.All() {
		p, tbl, err := k.Parse()
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []*machine.Machine{machine.NewPOWER1(), machine.NewSuperScalar2(), machine.NewScalar1()} {
			r := New(p, tbl, Options{Machine: m})
			for name, v := range k.Args {
				r.SetScalar(name, v)
			}
			if err := r.Run(); err != nil {
				t.Fatalf("%s on %s: %v", k.Name, m.Name, err)
			}
			got[k.Name+"|"+m.Name] = r.Cycles()
		}
	}
	raw, err := os.ReadFile(cyclesGolden)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]int64
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", cyclesGolden, err)
	}
	diffs := 0
	for k, w := range want {
		if got[k] != w {
			diffs++
			t.Errorf("%s: %d cycles, golden %d", k, got[k], w)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			diffs++
			t.Errorf("%s: missing from %s", k, cyclesGolden)
		}
	}
	if diffs > 0 {
		table, _ := json.MarshalIndent(got, "", "  ")
		t.Logf("replacement %s:\n%s", cyclesGolden, table)
	}
}
