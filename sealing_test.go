package perfpredict

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"perfpredict/internal/ir"
	"perfpredict/internal/kernels"
	"perfpredict/internal/machine"
	"perfpredict/internal/pipesim"
	"perfpredict/internal/tetris"
)

// sealProbeBlock exercises loads, stores, FMA-capable arithmetic and a
// register chain.
func sealProbeBlock() *ir.Block {
	b := &ir.Block{}
	b.Append(ir.Instr{Op: ir.OpFLoad, Dst: 0, Addr: b.Intern("a(i)"), Base: b.Intern("a")})
	b.Append(ir.Instr{Op: ir.OpFLoad, Dst: 1, Addr: b.Intern("b(i)"), Base: b.Intern("b")})
	b.Append(ir.Instr{Op: ir.OpFMul, Dst: 2}, 0, 1)
	b.Append(ir.Instr{Op: ir.OpFAdd, Dst: 3}, 2, 9)
	b.Append(ir.Instr{Op: ir.OpFStore, Addr: b.Intern("c(i)"), Base: b.Intern("c")}, 3)
	return b
}

// sealSnapshot renders everything a target answers: its fingerprint,
// its description, and its prices through prediction (in-core and
// memory), block analysis, Tetris placement and the pipeline
// simulator.
func sealSnapshot(t *testing.T, m *Target) string {
	t.Helper()
	var sb strings.Builder
	enc, err := machine.SpecOf(m).Encode()
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&sb, "fp %s units %v\n%s", m.Fingerprint(), m.Units(), enc)
	for _, name := range []string{"daxpy", "matmul", "jacobi"} {
		k, err := kernels.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Predict(k.Src, m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rep, err := AnalyzeInnermostBlock(k.Src, m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&sb, "%s: %s | mem %s | block %+v\n", name, p.Cost, p.Memory, rep)
	}
	b := sealProbeBlock()
	full, err := tetris.Estimate(m, b, tetris.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sc tetris.Scratch
	per, _, err := sc.SteadyStateChained(m, b, tetris.Options{}, 4, map[ir.Reg]ir.Reg{9: 3})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := pipesim.Run(m, b)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&sb, "block %+v steady %.3f sim %d\n", full, per, sim.Cycles)
	return sb.String()
}

// mutateMachine edits every exported field of m, in place and through
// every map and slice reachable from it, and what Lookup hands out.
func mutateMachine(m *Target) {
	if seq, err := m.Lookup(ir.OpFMul); err == nil {
		seq[0].Segments[0].Noncov += 9
	}
	m.Name += "-edited"
	m.DispatchWidth = 1
	m.HasFMA = !m.HasFMA
	m.LoadsPerStore = 3
	m.BranchCost += 7
	for k := range m.UnitCounts {
		m.UnitCounts[k] += 2
	}
	for _, seq := range m.Table {
		for i := range seq {
			for j := range seq[i].Segments {
				seq[i].Segments[j].Noncov += 5
				seq[i].Segments[j].Cov += 1
			}
		}
	}
	delete(m.Table, ir.OpFAdd)
	if m.Memory != nil {
		m.Memory.Levels[0].MissPenalty *= 10
		m.Memory.Levels[0].LineBytes /= 2
		m.Memory.TLB = nil
	}
}

// mutateSpec edits every field of s the same way.
func mutateSpec(s *machine.Spec) {
	s.Name += "-edited"
	s.DispatchWidth = 1
	s.HasFMA = !s.HasFMA
	s.BranchCost += 7
	for k := range s.Units {
		s.Units[k] += 2
	}
	for _, seq := range s.Ops {
		for i := range seq {
			for j := range seq[i].Segments {
				seq[i].Segments[j].Noncov += 5
			}
		}
	}
	delete(s.Ops, "fadd")
	if s.Memory != nil {
		s.Memory.Levels[0].MissPenalty *= 10
		s.Memory.TLB = nil
	}
}

// TestBuiltTargetsAreSealed is the compiled-target contract: once a
// target is built — by Spec.Machine, by a registry Lookup, or from a
// template cell — editing the spec, the template, or anything
// reachable from the built Machine changes neither its fingerprint
// nor any price.
func TestBuiltTargetsAreSealed(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("examples", "custom-machine", "power1mem.json"))
	if err != nil {
		t.Fatal(err)
	}
	t.Run("spec", func(t *testing.T) {
		s, err := machine.ParseSpec(data)
		if err != nil {
			t.Fatal(err)
		}
		m, err := s.Machine()
		if err != nil {
			t.Fatal(err)
		}
		want := sealSnapshot(t, m)
		mutateSpec(s)
		if got := sealSnapshot(t, m); got != want {
			t.Errorf("editing the spec changed the built target:\n got %s\nwant %s", got, want)
		}
		mutateMachine(m)
		if got := sealSnapshot(t, m); got != want {
			t.Errorf("editing the built machine changed its answers:\n got %s\nwant %s", got, want)
		}
	})
	t.Run("lookup", func(t *testing.T) {
		for _, name := range machine.Names() {
			m, err := machine.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			want := sealSnapshot(t, m)
			mutateMachine(m)
			if got := sealSnapshot(t, m); got != want {
				t.Errorf("%s: editing a looked-up machine changed its answers:\n got %s\nwant %s", name, got, want)
			}
			fresh, err := machine.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			if got := sealSnapshot(t, fresh); got != want {
				t.Errorf("%s: an edited lookup leaked into the next one", name)
			}
		}
	})
	t.Run("template", func(t *testing.T) {
		tpl, err := machine.ParseTemplate([]byte(`{
			"base_machine": "POWER1",
			"dispatch": [2, 4],
			"pipes": {"FPU": [1, 2]},
			"ops": {"fmul": [
				[{"name": "fmul", "segments": [{"unit": "FPU", "noncov": 1, "cov": 1}]}],
				[{"name": "fmul", "segments": [{"unit": "FPU", "noncov": 2, "cov": 3}]}]
			]}
		}`))
		if err != nil {
			t.Fatal(err)
		}
		cells, err := tpl.Expand()
		if err != nil {
			t.Fatal(err)
		}
		var ms []*Target
		var want []string
		for _, c := range cells {
			m, err := c.Spec.Machine()
			if err != nil {
				t.Fatal(err)
			}
			ms = append(ms, m)
			want = append(want, sealSnapshot(t, m))
		}
		for _, alts := range tpl.Ops {
			for _, seq := range alts {
				for i := range seq {
					for j := range seq[i].Segments {
						seq[i].Segments[j].Noncov += 4
					}
				}
			}
		}
		*tpl.Dispatch = machine.IntRange{Min: 1, Max: 1}
		for i, c := range cells {
			mutateSpec(c.Spec)
			mutateMachine(ms[i])
			if got := sealSnapshot(t, ms[i]); got != want[i] {
				t.Errorf("cell %d: editing the template, its cell spec or the machine changed the cell's answers", i)
			}
		}
	})
}
