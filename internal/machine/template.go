package machine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"perfpredict/internal/source"
)

// SpecTemplate is a machine description with free parameters: a
// validated base spec plus ranges over pipe counts and dispatch width
// and alternative atomic expansions for selected operations. Expanding
// the template enumerates a canonical lattice of concrete Specs — the
// input of design-space exploration, where the paper's model is run
// backwards: instead of predicting one program on one machine, the
// machine space is searched for the cheapest configuration meeting a
// cost target.
//
// A template is data, exactly like a Spec: a strict-parsing,
// canonically-encoding JSON document. The base is given either inline
// ("base") or as a registered machine name ("base_machine") — exactly
// one of the two.
type SpecTemplate struct {
	// BaseMachine names a registered target to use as the base spec;
	// mutually exclusive with Base.
	BaseMachine string `json:"base_machine,omitempty"`
	// Base is the inline base spec; mutually exclusive with BaseMachine.
	Base *Spec `json:"base,omitempty"`
	// Dispatch, when present, ranges the dispatch width.
	Dispatch *IntRange `json:"dispatch,omitempty"`
	// Pipes ranges the pipe count of the named unit kinds; units not
	// listed keep the base count.
	Pipes map[string]IntRange `json:"pipes,omitempty"`
	// Ops lists alternative atomic expansions for selected operations
	// (e.g. a lower-latency multiplier): each expansion REPLACES the
	// base mapping for that op, and the alternatives are indexed in
	// list order. Include the base expansion explicitly if it should
	// stay in the lattice.
	Ops map[string][][]AtomicOpSpec `json:"ops,omitempty"`
	// Budget declares the hardware-budget scalar of each expanded
	// config (see BudgetOf). Nil means every pipe and every dispatch
	// slot costs 1.
	Budget *BudgetSpec `json:"budget,omitempty"`
}

// IntRange is an inclusive [Min, Max] integer range, encoded in JSON
// as a two-element array.
type IntRange struct {
	Min, Max int
}

// MarshalJSON renders the range as [min, max].
func (r IntRange) MarshalJSON() ([]byte, error) {
	return json.Marshal([2]int{r.Min, r.Max})
}

// UnmarshalJSON accepts exactly a two-element integer array.
func (r *IntRange) UnmarshalJSON(data []byte) error {
	var a [2]int
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&a); err != nil {
		return fmt.Errorf("range must be [min, max]: %w", err)
	}
	r.Min, r.Max = a[0], a[1]
	return nil
}

// BudgetSpec declares how a concrete config's hardware-budget scalar
// is computed: a weighted sum of pipe counts plus a weighted dispatch
// width. Weights default to 1; an explicit 0 excludes that resource
// from the budget.
type BudgetSpec struct {
	// DefaultPipeWeight prices one pipe of any kind not listed in
	// PipeWeights (nil = 1).
	DefaultPipeWeight *float64 `json:"default_pipe_weight,omitempty"`
	// PipeWeights prices one pipe of the named kind.
	PipeWeights map[string]float64 `json:"pipe_weights,omitempty"`
	// DispatchWeight prices one dispatch slot (nil = 1).
	DispatchWeight *float64 `json:"dispatch_weight,omitempty"`
}

// ParseTemplate decodes a spec template from its JSON form; unknown
// fields and trailing data are rejected. The result is not yet
// validated; call Validate (or Expand, which validates) before use.
func ParseTemplate(data []byte) (*SpecTemplate, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var t SpecTemplate
	if err := dec.Decode(&t); err != nil {
		return nil, fmt.Errorf("spec template: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("spec template: trailing data after document")
	}
	return &t, nil
}

// Encode renders the template canonically (sorted object keys,
// two-space indent, trailing newline), like Spec.Encode.
func (t *SpecTemplate) Encode() ([]byte, error) {
	out, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("spec template: %w", err)
	}
	return append(out, '\n'), nil
}

// ResolveBase returns the template's base spec: the inline spec, or
// the spec form of the registered machine BaseMachine names. Exactly
// one of the two must be set.
func (t *SpecTemplate) ResolveBase() (*Spec, error) {
	switch {
	case t.Base != nil && t.BaseMachine != "":
		return nil, fmt.Errorf("spec template: give base or base_machine, not both")
	case t.Base != nil:
		return t.Base, nil
	case t.BaseMachine != "":
		m, err := Lookup(t.BaseMachine)
		if err != nil {
			return nil, fmt.Errorf("spec template: %w", err)
		}
		return SpecOf(m), nil
	default:
		return nil, fmt.Errorf("spec template: no base spec (give base or base_machine)")
	}
}

// Validate checks the template's own invariants: the base resolves
// and validates, every range is sane (1 ≤ min ≤ max), every ranged
// unit and every op with alternatives exists in the base, every
// alternative expansion is nonempty, and budget weights are
// nonnegative. Per-cell validity (e.g. an op alternative demanding
// more pipes than a low end of a pipe range provides) is checked by
// Expand and Compile, which check every cell of the lattice.
func (t *SpecTemplate) Validate() error {
	base, err := t.ResolveBase()
	if err != nil {
		return err
	}
	return t.validate(base)
}

// validate is Validate on the already resolved base.
func (t *SpecTemplate) validate(base *Spec) error {
	if err := base.Validate(); err != nil {
		return fmt.Errorf("spec template: base: %w", err)
	}
	if r := t.Dispatch; r != nil {
		if r.Min < 1 || r.Min > r.Max {
			return fmt.Errorf("spec template: dispatch range [%d, %d], want 1 <= min <= max", r.Min, r.Max)
		}
	}
	for unit, r := range t.Pipes {
		if _, ok := base.Units[unit]; !ok {
			return fmt.Errorf("spec template: pipe range for unknown unit %q", unit)
		}
		if r.Min < 1 || r.Min > r.Max {
			return fmt.Errorf("spec template: pipe range %s [%d, %d], want 1 <= min <= max", unit, r.Min, r.Max)
		}
	}
	for op, alts := range t.Ops {
		if _, ok := base.Ops[op]; !ok {
			return fmt.Errorf("spec template: alternatives for unknown op %q", op)
		}
		if len(alts) == 0 {
			return fmt.Errorf("spec template: op %s lists no alternatives", op)
		}
		for i, alt := range alts {
			if len(alt) == 0 {
				return fmt.Errorf("spec template: op %s alternative %d is empty", op, i)
			}
		}
	}
	if b := t.Budget; b != nil {
		if b.DefaultPipeWeight != nil && *b.DefaultPipeWeight < 0 {
			return fmt.Errorf("spec template: negative default pipe weight")
		}
		if b.DispatchWeight != nil && *b.DispatchWeight < 0 {
			return fmt.Errorf("spec template: negative dispatch weight")
		}
		for unit, w := range b.PipeWeights {
			if _, ok := base.Units[unit]; !ok {
				return fmt.Errorf("spec template: pipe weight for unknown unit %q", unit)
			}
			if w < 0 {
				return fmt.Errorf("spec template: negative pipe weight for %s", unit)
			}
		}
	}
	return nil
}

// dimension is one free parameter of the lattice, in canonical order:
// dispatch first (when ranged), then pipe ranges sorted by unit name,
// then op alternatives sorted by op name. Values enumerate ascending
// (range min→max; alternative index 0→n−1).
type dimension struct {
	key  string // canonical choice key: "dispatch", "pipes.X", "ops.y"
	name string // display name for the cell-name suffix
	lo   int    // first value (range min; 0 for alternatives)
	n    int    // number of values
	op   string // nonempty for an op-alternative dimension
	unit string // nonempty for a pipe-range dimension
}

func (t *SpecTemplate) dimensions() []dimension {
	var dims []dimension
	if r := t.Dispatch; r != nil {
		dims = append(dims, dimension{key: "dispatch", name: "dispatch", lo: r.Min, n: r.Max - r.Min + 1})
	}
	units := make([]string, 0, len(t.Pipes))
	for u := range t.Pipes {
		units = append(units, u)
	}
	sort.Strings(units)
	for _, u := range units {
		r := t.Pipes[u]
		dims = append(dims, dimension{key: "pipes." + u, name: u, lo: r.Min, n: r.Max - r.Min + 1, unit: u})
	}
	ops := make([]string, 0, len(t.Ops))
	for op := range t.Ops {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		dims = append(dims, dimension{key: "ops." + op, name: op, lo: 0, n: len(t.Ops[op]), op: op})
	}
	return dims
}

// Size returns the number of concrete specs Expand enumerates (the
// lattice cell count), without building them. A template with no free
// parameters has size 1 (the base itself). Returns an error when the
// template is invalid or the product overflows practical bounds.
func (t *SpecTemplate) Size() (int, error) {
	if err := t.Validate(); err != nil {
		return 0, err
	}
	return latticeSize(t.dimensions())
}

// latticeSize is the product of the dimensions' value counts, capped.
func latticeSize(dims []dimension) (int, error) {
	size := 1
	for _, d := range dims {
		if d.n <= 0 {
			return 0, fmt.Errorf("spec template: empty dimension %s", d.key)
		}
		size *= d.n
		if size > 1<<24 {
			return 0, fmt.Errorf("spec template: lattice exceeds %d cells", 1<<24)
		}
	}
	return size, nil
}

// Expanded is one cell of the lattice: a concrete, validated spec
// plus the choice assignment that produced it.
type Expanded struct {
	// Spec is the concrete machine description; its Name is the base
	// name suffixed with the choices, so every cell is distinct.
	Spec *Spec
	// Choices maps each canonical dimension key ("dispatch",
	// "pipes.<unit>", "ops.<op>") to the chosen value: the dispatch
	// width, the pipe count, or the alternative index respectively.
	Choices map[string]int
}

// Expand enumerates the lattice in canonical order: dimensions as
// ordered by dimensions() (dispatch, then pipes by unit name, then
// ops by op name), values ascending, first dimension slowest
// (row-major). The enumeration is deterministic and duplicate-free —
// every cell's spec carries a distinct name, hence a distinct content
// fingerprint. Every produced spec is valid; a template whose cells
// cannot all be valid machines (e.g. an op alternative needing two
// pipes of a kind ranged down to one) fails here with the cell that
// broke. Each cell is a full Spec; Compile builds the same cells'
// machines without one.
func (t *SpecTemplate) Expand() ([]Expanded, error) {
	sh, err := t.shape()
	if err != nil {
		return nil, err
	}
	out := make([]Expanded, sh.size)
	for i := range out {
		out[i] = Expanded{Spec: sh.spec(i), Choices: sh.choices(i)}
	}
	return out, nil
}

// BudgetOf computes the declared hardware-budget scalar of one
// concrete spec: Σ pipe-count × pipe-weight + dispatch-width ×
// dispatch-weight, with all weights defaulting to 1 when Budget is
// absent. This scalar — never a structural "more resources" ordering —
// is the resource coordinate of exploration's dominance test:
// scheduling is not monotone in resources (Graham's anomaly), so a
// bigger machine must prove itself on measured cost, not be presumed
// faster.
func (t *SpecTemplate) BudgetOf(s *Spec) float64 {
	units := make([]string, 0, len(s.Units))
	for u := range s.Units {
		units = append(units, u)
	}
	sort.Strings(units)
	weights := make([]float64, len(units))
	counts := make([]int, len(units))
	for i, u := range units {
		weights[i], counts[i] = t.pipeWeight(u), s.Units[u]
	}
	return budgetSum(t.dispatchWeight(), s.DispatchWidth, weights, counts)
}

// budgetSum is the one summation of a budget scalar: the dispatch
// term, then one term per unit kind in sorted kind order. BudgetOf
// and compiled lattice cells both sum here, so their budgets agree
// bit for bit.
func budgetSum(dispatchW float64, dispatch int, weights []float64, counts []int) float64 {
	total := dispatchW * float64(dispatch)
	for i, w := range weights {
		total += w * float64(counts[i])
	}
	return total
}

// pipeWeight prices one pipe of the named kind.
func (t *SpecTemplate) pipeWeight(unit string) float64 {
	if t.Budget != nil {
		if w, ok := t.Budget.PipeWeights[unit]; ok {
			return w
		}
		if t.Budget.DefaultPipeWeight != nil {
			return *t.Budget.DefaultPipeWeight
		}
	}
	return 1
}

// dispatchWeight prices one dispatch slot.
func (t *SpecTemplate) dispatchWeight() float64 {
	if t.Budget != nil && t.Budget.DispatchWeight != nil {
		return *t.Budget.DispatchWeight
	}
	return 1
}

// Fingerprint is the template's content identity, used in
// result-cache keys. The base is resolved first, so a template naming
// a registered machine and one inlining the identical spec share a
// fingerprint; everything else enters through the canonical encoding.
func (t *SpecTemplate) Fingerprint() (source.Fingerprint, error) {
	base, err := t.ResolveBase()
	if err != nil {
		return source.Fingerprint{}, err
	}
	resolved := *t
	resolved.Base, resolved.BaseMachine = base, ""
	data, err := resolved.Encode()
	if err != nil {
		return source.Fingerprint{}, err
	}
	return source.Fingerprint{}.MixString("machine-template/v1").MixString(string(data)), nil
}
