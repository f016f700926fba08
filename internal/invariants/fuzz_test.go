package invariants

import (
	"strings"
	"testing"

	"perfpredict/internal/ir"
	"perfpredict/internal/machine"
	"perfpredict/internal/progen"
	"perfpredict/internal/tetris"
)

// FuzzBlockInvariants drives the whole block suite from a fuzzed
// seed: the seed picks the machine, the block, and the metamorphic
// twins, so the native fuzzer explores generator space while every
// failure stays reproducible from the seed alone.
func FuzzBlockInvariants(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		vs, _ := CheckBlock(seed, Config{NodeBudget: 1 << 15})
		for _, v := range vs {
			t.Errorf("%s", v)
		}
		for _, v := range CheckSpec(seed) {
			t.Errorf("%s", v)
		}
	})
}

// FuzzSpecJSON feeds raw bytes to the spec loader: anything that
// parses and validates must build a machine, price a block without
// error, and round-trip through the canonical encoding.
func FuzzSpecJSON(f *testing.F) {
	f.Add([]byte(`{"name":"x"}`))
	f.Add([]byte(`not json`))
	for seed := int64(0); seed < 4; seed++ {
		s := progen.GenSpec(progen.NewRand(seed))
		if data, err := s.Encode(); err == nil {
			f.Add(data)
		}
	}
	probe := &ir.Block{}
	probe.Append(ir.Instr{Op: ir.OpLoadImm, Dst: 0, Imm: 1})
	probe.Append(ir.Instr{Op: ir.OpFLoad, Dst: 1, Addr: probe.Intern("a(i)"), Base: probe.Intern("a")})
	probe.Append(ir.Instr{Op: ir.OpFAdd, Dst: 2}, 1, 1)
	probe.Append(ir.Instr{Op: ir.OpFStore, Dst: ir.NoReg, Addr: probe.Intern("a(i)"), Base: probe.Intern("a")}, 2)
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := machine.ParseSpec(data)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			return
		}
		m, err := s.Machine()
		if err != nil {
			t.Fatalf("validated spec failed to build: %v", err)
		}
		if _, err := tetris.Estimate(m, probe, tetris.Options{}); err != nil {
			t.Fatalf("validated machine failed to price a block: %v", err)
		}
		enc1, err := s.Encode()
		if err != nil {
			t.Fatalf("validated spec failed to encode: %v", err)
		}
		back, err := machine.ParseSpec(enc1)
		if err != nil {
			t.Fatalf("canonical encoding rejected: %v", err)
		}
		enc2, err := back.Encode()
		if err != nil || string(enc1) != string(enc2) {
			t.Fatalf("Encode∘ParseSpec is not the identity (err %v)", err)
		}
	})
}

// FuzzSpecTemplate feeds raw bytes to the machine-template loader:
// anything that parses and validates must size and expand, every
// expanded cell must be a valid distinct machine equal to the
// compiled lattice's cell, and the template must round-trip through
// its canonical encoding with a stable fingerprint.
func FuzzSpecTemplate(f *testing.F) {
	f.Add([]byte(`{"base_machine":"POWER1","dispatch":[4,5]}`))
	f.Add([]byte(`{"base_machine":"POWER1","pipes":{"FPU":[1,2]}}`))
	f.Add([]byte(`{"base_machine":"POWER1","dispatch":[5,4]}`))
	f.Add([]byte(`not json`))
	for seed := int64(0); seed < 4; seed++ {
		tpl := progen.GenTemplate(progen.NewRand(seed))
		if data, err := tpl.Encode(); err == nil {
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tpl, err := machine.ParseTemplate(data)
		if err != nil {
			return
		}
		if err := tpl.Validate(); err != nil {
			return
		}
		size, err := tpl.Size()
		if err != nil {
			t.Fatalf("validated template failed to size: %v", err)
		}
		if size > 1<<12 {
			// Expansion cost is linear in cells; bound the fuzz iteration.
			return
		}
		if msgs := LatticeMismatches(tpl); len(msgs) > 0 {
			t.Fatalf("compiled lattice differs from the expansion:\n%s", strings.Join(msgs, "\n"))
		}
		cells, err := tpl.Expand()
		if err != nil {
			t.Fatalf("validated template failed to expand: %v", err)
		}
		if len(cells) != size {
			t.Fatalf("Size says %d cells, Expand produced %d", size, len(cells))
		}
		seen := map[string]bool{}
		for i, c := range cells {
			if err := c.Spec.Validate(); err != nil {
				t.Fatalf("cell %d (%s) invalid: %v", i, c.Spec.Name, err)
			}
			m, err := c.Spec.Machine()
			if err != nil {
				t.Fatalf("cell %d (%s) failed to build: %v", i, c.Spec.Name, err)
			}
			fp := m.Fingerprint().String()
			if seen[fp] {
				t.Fatalf("cell %d (%s) duplicates an earlier fingerprint", i, c.Spec.Name)
			}
			seen[fp] = true
		}
		enc1, err := tpl.Encode()
		if err != nil {
			t.Fatalf("validated template failed to encode: %v", err)
		}
		back, err := machine.ParseTemplate(enc1)
		if err != nil {
			t.Fatalf("canonical encoding rejected: %v", err)
		}
		enc2, err := back.Encode()
		if err != nil || string(enc1) != string(enc2) {
			t.Fatalf("Encode∘ParseTemplate is not the identity (err %v)", err)
		}
		fp1, err1 := tpl.Fingerprint()
		fp2, err2 := back.Fingerprint()
		if err1 != nil || err2 != nil || fp1 != fp2 {
			t.Fatalf("fingerprint unstable across round-trip (errs %v, %v)", err1, err2)
		}
	})
}
