package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"perfpredict"
	"perfpredict/internal/kernels"
	"perfpredict/internal/machine"
)

// corpusProg is one program of testdata/corpus with its pinned
// outputs: golden[target] is the Cost.String() of every golden
// target, explain[target] the explain digest.
type corpusProg struct {
	name, src string
	golden    map[string]string
	explain   map[string]string
}

// loadCorpus reads the 50 corpus programs and their goldens, sorted by
// name.
func loadCorpus() ([]corpusProg, error) {
	dir := filepath.Join("testdata", "corpus")
	var golden, explain map[string]map[string]string
	if err := readJSON(filepath.Join(dir, "golden.json"), &golden); err != nil {
		return nil, err
	}
	if err := readJSON(filepath.Join(dir, "golden_explain.json"), &explain); err != nil {
		return nil, err
	}
	names := make([]string, 0, len(golden))
	for n := range golden {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]corpusProg, 0, len(names))
	for _, n := range names {
		src, err := os.ReadFile(filepath.Join(dir, "programs", n))
		if err != nil {
			return nil, err
		}
		out = append(out, corpusProg{name: n, src: string(src), golden: golden[n], explain: explain[n]})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty corpus in %s", dir)
	}
	return out, nil
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// namedTarget is a machine under the name the goldens use.
type namedTarget struct {
	name string
	m    *perfpredict.Target
}

// loadSpec builds a machine from a spec file: machine.ParseSpec plus
// Spec.Machine, recorded as one machine.spec_build span.
func loadSpec(l *spanLog, path string) (*perfpredict.Target, []byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	m, err := buildSpec(l, data, -1)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, data, nil
}

func buildSpec(l *spanLog, data []byte, op int32) (*perfpredict.Target, error) {
	s := l.begin("machine.spec_build", -1, op)
	defer l.end(s)
	spec, err := machine.ParseSpec(data)
	if err != nil {
		return nil, err
	}
	return spec.Machine()
}

// goldenTargets returns the eight machines the corpus goldens cover:
// the three registered builtins and testdata/corpus/specs/spec01-05.
func goldenTargets(l *spanLog) ([]namedTarget, error) {
	var out []namedTarget
	for _, n := range []string{"POWER1", "Scalar1", "SuperScalar2"} {
		m, err := machine.Lookup(n)
		if err != nil {
			return nil, err
		}
		out = append(out, namedTarget{n, m})
	}
	for i := 1; i <= 5; i++ {
		n := fmt.Sprintf("spec%02d", i)
		m, _, err := loadSpec(l, filepath.Join("testdata", "corpus", "specs", n+".json"))
		if err != nil {
			return nil, err
		}
		out = append(out, namedTarget{n, m})
	}
	return out, nil
}

// power1memPath is the POWER1 spec with a memory hierarchy; on it,
// Cost − Memory of a program equals its POWER1 cost.
const power1memPath = "examples/custom-machine/power1mem.json"

func mustKernel(name string) kernels.Kernel {
	k, err := kernels.Get(name)
	if err != nil {
		panic(err)
	}
	return k
}

// predictionError is the paper's headline accuracy: the mean of
// |predicted/simulated − 1| over the kernels on POWER1 at each
// kernel's Args, against the cycle-level simulator. It prints each
// kernel's ratio to w and returns the mean in percent.
func predictionError(w io.Writer) (float64, error) {
	m := perfpredict.POWER1()
	sum, n := 0.0, 0
	for _, k := range kernels.All() {
		if k.Name == "stencil_dist" {
			continue // communication-model demo; not a single-node kernel
		}
		p, err := perfpredict.Predict(k.Src, m)
		if err != nil {
			return 0, fmt.Errorf("pred_error %s: %w", k.Name, err)
		}
		pred, err := p.EvalAt(k.Args)
		if err != nil {
			return 0, fmt.Errorf("pred_error %s: %w", k.Name, err)
		}
		sim, err := perfpredict.Simulate(k.Src, m, k.Args)
		if err != nil {
			return 0, fmt.Errorf("pred_error %s: simulate: %w", k.Name, err)
		}
		ratio := pred / float64(sim)
		fmt.Fprintf(w, "pred_error kernel=%s predicted=%.0f simulated=%d ratio=%.6f\n", k.Name, pred, sim, ratio)
		sum += math.Abs(ratio - 1)
		n++
	}
	mean := 100 * sum / float64(n)
	fmt.Fprintf(w, "pred_error mean=%.6f%% over %d kernels\n", mean, n)
	return mean, nil
}
