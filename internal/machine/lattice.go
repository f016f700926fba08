package machine

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"

	"perfpredict/internal/ir"
)

// shape is what Expand and Compile share of a template: the resolved
// base, the canonical dimensions, and the per-kind pipe demands that
// make a cell's validity an integer check over its choices. Cell i's
// value on dimension j is lo + (i / stride[j]) mod n, which is the
// canonical row-major order, last dimension fastest.
type shape struct {
	tpl      *SpecTemplate
	base     *Spec
	baseName string
	dims     []dimension
	stride   []int
	size     int

	// kinds are the base's unit kinds, sorted. A template cannot add or
	// remove a kind, so every cell has the same kinds, in the same
	// order, and therefore the same cost-table kind indices.
	kinds    []UnitKind
	kindIdx  map[UnitKind]int32
	kindDim  []int // per kind: the dimension ranging its pipe count, or -1
	counts   []int // per kind: the base's pipe count
	dispatch int   // the dispatch dimension, or -1
	width    int   // the base's dispatch width

	dispatchW float64
	weights   []float64 // per kind: the budget weight of one pipe

	// need is, per kind, the most pipes one atomic operation asks for
	// among the base ops no alternative replaces.
	need []int
	ops  []opDim
}

// opDim is one op-alternative dimension.
type opDim struct {
	dim   int
	op    ir.Op
	radix int // the dimension's weight in a cell's op-tuple key
	alts  []alternative
}

// alternative is one alternative expansion, checked once per template.
type alternative struct {
	// ok reports that the expansion passes every Spec.Validate rule
	// that does not depend on pipe counts.
	ok bool
	// need is, per kind, the most pipes one atomic operation asks for.
	need []int
	// seq is the machine form (built by Compile).
	seq []AtomicOp
}

// shape resolves and validates the template and checks every cell.
// A cell that fails the integer check is built as a full Spec and
// validated, so the error names the cell and reads exactly as
// Spec.Validate words it.
func (t *SpecTemplate) shape() (*shape, error) {
	base, err := t.ResolveBase()
	if err != nil {
		return nil, err
	}
	if err := t.validate(base); err != nil {
		return nil, err
	}
	dims := t.dimensions()
	size, err := latticeSize(dims)
	if err != nil {
		return nil, err
	}
	sh := &shape{tpl: t, base: base, baseName: base.Name, dims: dims, size: size,
		stride: make([]int, len(dims)), dispatch: -1, width: base.DispatchWidth, dispatchW: t.dispatchWeight()}
	for j, n := len(dims)-1, 1; j >= 0; j-- {
		sh.stride[j] = n
		n *= dims[j].n
	}
	for u := range base.Units {
		sh.kinds = append(sh.kinds, UnitKind(u))
	}
	slices.Sort(sh.kinds)
	nk := len(sh.kinds)
	sh.kindIdx = make(map[UnitKind]int32, nk)
	sh.kindDim, sh.counts, sh.weights = make([]int, nk), make([]int, nk), make([]float64, nk)
	// Pipe demands are counted separately, so the other rules run
	// against counts no segment list can exceed.
	unbounded := make(map[string]int, nk)
	for k, u := range sh.kinds {
		sh.kindIdx[u] = int32(k)
		sh.kindDim[k] = -1
		sh.counts[k] = base.Units[string(u)]
		sh.weights[k] = t.pipeWeight(string(u))
		unbounded[string(u)] = math.MaxInt
	}
	radix := 1
	for j, d := range dims {
		switch {
		case d.op != "":
			op, _ := ir.ParseOp(d.op) // validate vouched for it through the base
			od := opDim{dim: j, op: op, radix: radix}
			radix *= d.n
			for _, seq := range t.Ops[d.op] {
				a := alternative{ok: checkExpansion(base.Name, op, seq, unbounded) == nil, need: make([]int, nk)}
				sh.demand(seq, a.need)
				od.alts = append(od.alts, a)
			}
			sh.ops = append(sh.ops, od)
		case d.unit != "":
			sh.kindDim[sh.kindIdx[UnitKind(d.unit)]] = j
		default:
			sh.dispatch = j
		}
	}
	sh.need = make([]int, nk)
	for name, seq := range base.Ops {
		if _, replaced := t.Ops[name]; !replaced {
			sh.demand(seq, sh.need)
		}
	}
	for i := 0; i < size; i++ {
		if sh.valid(i) {
			continue
		}
		s := sh.spec(i)
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("spec template: cell %s: %w", s.Name, err)
		}
	}
	return sh, nil
}

// demand raises need[k] to the number of segments on kind k in any
// one atomic operation of seq: each segment occupies its own pipe.
func (sh *shape) demand(seq []AtomicOpSpec, need []int) {
	per := make([]int, len(need))
	for _, a := range seq {
		clear(per)
		for _, seg := range a.Segments {
			if k, ok := sh.kindIdx[UnitKind(seg.Unit)]; ok {
				per[k]++
				need[k] = max(need[k], per[k])
			}
		}
	}
}

// valid reports whether cell i passes Spec.Validate: its alternatives
// pass the count-free rules, and no kind has fewer pipes than an
// atomic operation of the cell asks for.
func (sh *shape) valid(i int) bool {
	for _, od := range sh.ops {
		if !od.alts[sh.value(i, od.dim)].ok {
			return false
		}
	}
	for k := range sh.kinds {
		need := sh.need[k]
		for _, od := range sh.ops {
			need = max(need, od.alts[sh.value(i, od.dim)].need[k])
		}
		if need > sh.count(i, k) {
			return false
		}
	}
	return true
}

// value is cell i's value on dimension j: a dispatch width, a pipe
// count or an alternative index.
func (sh *shape) value(i, j int) int {
	d := &sh.dims[j]
	return d.lo + i/sh.stride[j]%d.n
}

// count is cell i's pipe count of kind k.
func (sh *shape) count(i, k int) int {
	if j := sh.kindDim[k]; j >= 0 {
		return sh.value(i, j)
	}
	return sh.counts[k]
}

// dispatchWidth is cell i's dispatch width.
func (sh *shape) dispatchWidth(i int) int {
	if sh.dispatch >= 0 {
		return sh.value(i, sh.dispatch)
	}
	return sh.width
}

// name is cell i's name: the base name suffixed with its choices, as
// in POWER1[dispatch=4,FPU=2,fmul@1].
func (sh *shape) name(i int) string {
	if len(sh.dims) == 0 {
		return sh.baseName
	}
	var b strings.Builder
	b.Grow(len(sh.baseName) + 8*len(sh.dims) + 2)
	b.WriteString(sh.baseName)
	b.WriteByte('[')
	var digits [20]byte
	for j, d := range sh.dims {
		if j > 0 {
			b.WriteByte(',')
		}
		b.WriteString(d.name)
		if d.op != "" {
			b.WriteByte('@')
		} else {
			b.WriteByte('=')
		}
		b.Write(strconv.AppendInt(digits[:0], int64(sh.value(i, j)), 10))
	}
	b.WriteByte(']')
	return b.String()
}

// choices maps each dimension key to cell i's value.
func (sh *shape) choices(i int) map[string]int {
	c := make(map[string]int, len(sh.dims))
	for j, d := range sh.dims {
		c[d.key] = sh.value(i, j)
	}
	return c
}

// spec builds cell i as a full Spec sharing nothing with the template.
func (sh *shape) spec(i int) *Spec {
	s := sh.base.clone()
	s.Name = sh.name(i)
	for j, d := range sh.dims {
		v := sh.value(i, j)
		switch {
		case d.op != "":
			s.Ops[d.op] = cloneAtomicOps(sh.tpl.Ops[d.op][v])
		case d.unit != "":
			s.Units[d.unit] = v
		default:
			s.DispatchWidth = v
		}
	}
	return s
}

// Lattice is a compiled SpecTemplate: the fixed part of a sweep done
// once, from which each cell's sealed machine is built with only what
// the cell's axes change. Compile resolves and validates the template
// and checks every cell; the base's atomic operation mapping is
// converted to machine form once, and the cost table's op half
// (flattenOps) is built once per distinct tuple of op alternatives, on
// the first cell that needs it. A cell builds only its pipe half
// (pipesOf), its unit instances, its unit counts and its fingerprint.
//
// Cell i's machine equals (*Spec).Machine of Expand's cell i: same
// fingerprint, same compiled tables, same SpecOf. Its Compiled shares
// the op tuple's read-only table and op half with the tuple's other
// cells. Its exported fields never alias any Compiled description;
// the cells of one tuple share one exported copy of the table and
// the memory hierarchy, so editing them changes no cell's prices.
//
// A Lattice is safe for concurrent use. Later edits to the template
// do not reach it.
type Lattice struct {
	sh    *shape
	proto Machine // the base in machine form, without unit counts; read-only

	mu     sync.Mutex
	tuples map[int]*opTuple
}

// opTuple is what the cells choosing one alternative per op share.
type opTuple struct {
	once  sync.Once
	desc  Machine // compiled description, less the per-cell fields
	ex    Machine // exported fields: a deep copy of desc
	opIdx []int32
	costs []OpCosts
}

// LatticeCell is one cell of a compiled lattice.
type LatticeCell struct {
	// Name is the base name suffixed with the choices (Expanded.Spec.Name).
	Name string
	// Choices maps each dimension key to the chosen value
	// (Expanded.Choices).
	Choices map[string]int
	// Budget is the declared hardware-budget scalar (BudgetOf).
	Budget float64
	// Machine is the cell's sealed machine.
	Machine *Machine
}

// Compile compiles the template for a sweep. It fails exactly where
// Expand fails, with the same error.
func (t *SpecTemplate) Compile() (*Lattice, error) {
	sh, err := t.shape()
	if err != nil {
		return nil, err
	}
	l := &Lattice{sh: sh, proto: *sh.base.machine(), tuples: map[int]*opTuple{}}
	l.proto.UnitCounts = nil
	for oi := range sh.ops {
		od := &sh.ops[oi]
		for ai := range od.alts {
			od.alts[ai].seq = atomicOps(t.Ops[sh.dims[od.dim].op][ai])
		}
	}
	return l, nil
}

// Len returns the number of cells.
func (l *Lattice) Len() int { return l.sh.size }

// Cell builds cell i (0 ≤ i < Len) in canonical lattice order.
func (l *Lattice) Cell(i int) LatticeCell {
	sh := l.sh
	tp := l.tuple(i)
	var buf [8]int
	counts := buf[:0]
	for k := range sh.kinds {
		counts = append(counts, sh.count(i, k))
	}
	name, dispatch := sh.name(i), sh.dispatchWidth(i)
	c := &Compiled{desc: tp.desc}
	c.desc.Name, c.desc.DispatchWidth, c.desc.UnitCounts = name, dispatch, sh.unitCounts(counts)
	c.fp = fingerprint(&c.desc)
	c.units = instances(sh.kinds, counts)
	c.costs = CostTable{opIdx: tp.opIdx, costs: tp.costs, Kinds: sh.kinds}
	c.costs.KindPipes, c.costs.PipeKind = pipesOf(c.units, len(sh.kinds))
	m := new(Machine)
	*m = tp.ex
	m.Name, m.DispatchWidth, m.UnitCounts, m.c = name, dispatch, sh.unitCounts(counts), c
	return LatticeCell{
		Name:    name,
		Choices: sh.choices(i),
		Budget:  budgetSum(sh.dispatchW, dispatch, sh.weights, counts),
		Machine: m,
	}
}

// unitCounts returns a fresh unit-count map.
func (sh *shape) unitCounts(counts []int) map[UnitKind]int {
	m := make(map[UnitKind]int, len(counts))
	for k, n := range counts {
		m[sh.kinds[k]] = n
	}
	return m
}

// tuple returns cell i's op tuple, building it on first use.
func (l *Lattice) tuple(i int) *opTuple {
	key := 0
	for _, od := range l.sh.ops {
		key += l.sh.value(i, od.dim) * od.radix
	}
	l.mu.Lock()
	tp, ok := l.tuples[key]
	if !ok {
		tp = new(opTuple)
		l.tuples[key] = tp
	}
	l.mu.Unlock()
	tp.once.Do(func() { l.build(tp, i) })
	return tp
}

// build fills the op tuple of cell i.
func (l *Lattice) build(tp *opTuple, i int) {
	tp.desc = l.proto
	if len(l.sh.ops) > 0 {
		tp.desc.Table = maps.Clone(l.proto.Table)
		for _, od := range l.sh.ops {
			tp.desc.Table[od.op] = od.alts[l.sh.value(i, od.dim)].seq
		}
	}
	tp.opIdx, tp.costs = flattenOps(tp.desc.Table, func(k UnitKind) int32 { return l.sh.kindIdx[k] })
	tp.ex = *tp.desc.clone()
}
