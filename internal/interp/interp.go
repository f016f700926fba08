// Package interp executes F-lite programs. It serves two roles in the
// reproduction:
//
//  1. a semantic reference — programs compute real values, so
//     transformation legality and kernel correctness can be checked;
//  2. a dynamic timing reference — each executed statement is lowered
//     once (imitating the back end, exactly as the predictor's
//     translation module does) and the resulting operations are
//     streamed, with concretized memory addresses and renamed
//     registers, into the in-order pipeline simulator. The resulting
//     cycle count substitutes for the paper's planned "actual run-time"
//     measurements on RS/6000 hardware.
package interp

import (
	"fmt"
	"math"

	"perfpredict/internal/ir"
	"perfpredict/internal/lower"
	"perfpredict/internal/machine"
	"perfpredict/internal/pipesim"
	"perfpredict/internal/sem"
	"perfpredict/internal/source"
)

// Options control a run. A timed run lowers its trace with the same
// back-end imitation the predictor assumes (lower.DefaultOptions).
type Options struct {
	// Machine enables timing: executed operations are fed to a pipeline
	// of this machine. Nil runs values-only.
	Machine *machine.Machine
	// MaxOps aborts runaway executions (0 = default 50M statements).
	MaxOps int64
	// MemTrace, when set, receives every array element access (base
	// symbol, flat element index, write flag) — the address stream the
	// cache simulator consumes.
	MemTrace func(base string, index int64, write bool)
	// ScheduleWindow batches the dynamic trace into windows of this
	// many instructions, list-scheduling each before it reaches the
	// pipeline — emulating the code generator's unrolling plus
	// instruction scheduling across iterations (§2.2.2: "it might
	// unroll the loop in the code generation phase"). 0 uses the
	// default (48); 1 feeds strictly in order (ablation).
	ScheduleWindow int
}

// Runner executes one program unit.
type Runner struct {
	prog *source.Program
	tbl  *sem.Table
	opt  Options

	scalars map[string]float64
	arrays  map[string][]float64
	dims    map[string][]int64
	// env evaluates expressions over scalars and arrays.
	env sem.Env

	pipe    *pipesim.Pipeline
	trans   *lower.Translator
	lowered map[source.Stmt]*cachedSeg
	condLow map[source.Expr]*cachedSeg
	regBase ir.Reg
	steps   int64
	maxOps  int64
	// preDone tracks which cached segments already charged their
	// one-time (hoisted) cost.
	preDone map[*cachedSeg]bool
	// promo holds, per active segment, the dynamic register currently
	// carrying each promoted location's value (sum-reduction chains).
	promo  map[*cachedSeg]map[ir.Sym]ir.Reg
	issues int64
	// window buffers renamed trace instructions for list scheduling
	// before issue. Its memory instructions name run-wide locations:
	// the translator's Syms for what lowering did not concretize, and
	// the numbers below zero that location gives array elements.
	window  ir.Block
	winSize int
	// winIDs and winLocs renumber a window's locations densely for the
	// scheduler, and back.
	winIDs  map[ir.Sym]ir.Sym
	winLocs []ir.Sym
	// winDeps is the scheduler's dependence storage, reused per window.
	winDeps ir.DepsBuf
	// ranges holds, per array base Sym, the first location number of
	// its elements (-1 before first touch); strays numbers an index
	// outside its array; nlocs counts the numbers handed out.
	ranges []int64
	strays map[stray]int64
	nlocs  int64
}

// stray is an element index outside its array's extent.
type stray struct {
	base ir.Sym
	idx  int64
}

type cachedSeg struct {
	lw     *lower.Lowered
	n      int // statements in the run (0 for a condition)
	stride ir.Reg
	// inAddr maps the static per-entry register of each promoted
	// location to its address; outAddr maps the static final-value
	// register. Used to chain promoted values across iterations.
	inAddr  map[ir.Reg]ir.Sym
	outAddr map[ir.Reg]ir.Sym
}

// New prepares a runner; dummy arguments and arrays with symbolic
// extents must be supplied via SetScalar / SetArray before Run.
func New(prog *source.Program, tbl *sem.Table, opt Options) *Runner {
	if opt.MaxOps == 0 {
		opt.MaxOps = 50_000_000
	}
	if opt.ScheduleWindow == 0 {
		opt.ScheduleWindow = 48
	}
	r := &Runner{
		prog:    prog,
		tbl:     tbl,
		opt:     opt,
		winSize: opt.ScheduleWindow,
		scalars: map[string]float64{},
		arrays:  map[string][]float64{},
		dims:    map[string][]int64{},
		lowered: map[source.Stmt]*cachedSeg{},
		condLow: map[source.Expr]*cachedSeg{},
		preDone: map[*cachedSeg]bool{},
		promo:   map[*cachedSeg]map[ir.Sym]ir.Reg{},
		winIDs:  map[ir.Sym]ir.Sym{},
		strays:  map[stray]int64{},
		maxOps:  opt.MaxOps,
	}
	r.env = sem.Env{Scalars: r.scalars, Element: r.element}
	if opt.Machine != nil {
		r.pipe = pipesim.NewPipeline(opt.Machine)
		r.trans = lower.New(tbl, opt.Machine, lower.DefaultOptions())
	}
	return r
}

// SetScalar sets a scalar (or dummy argument) before Run.
func (r *Runner) SetScalar(name string, v float64) { r.scalars[name] = v }

// Scalar reads a scalar after Run.
func (r *Runner) Scalar(name string) float64 { return r.scalars[name] }

// SetArray installs array contents (row-major over the declared dims).
func (r *Runner) SetArray(name string, data []float64) { r.arrays[name] = data }

// Array returns array contents after Run.
func (r *Runner) Array(name string) []float64 { return r.arrays[name] }

// Cycles returns the simulated dynamic cycle count (0 when timing is
// off).
func (r *Runner) Cycles() int64 {
	if r.pipe == nil {
		return 0
	}
	if err := r.flushWindow(); err != nil {
		return -1
	}
	return r.pipe.Drain()
}

// queued issues the window once it is full: list-scheduled, or
// instruction by instruction for a window of one.
func (r *Runner) queued() error {
	if len(r.window.Instrs) >= r.winSize {
		return r.flushWindow()
	}
	return nil
}

// flushWindow schedules and issues the buffered trace window.
func (r *Runner) flushWindow() error {
	w := &r.window
	if len(w.Instrs) == 0 {
		return nil
	}
	if r.winSize > 1 {
		// The scheduler indexes its dependence tables by Sym: number the
		// window's locations densely, and restore them for the pipeline.
		clear(r.winIDs)
		r.winLocs = r.winLocs[:0]
		for i := range w.Instrs {
			if in := &w.Instrs[i]; in.Op.IsMem() {
				id, ok := r.winIDs[in.Addr]
				if !ok {
					id = ir.Sym(len(r.winLocs))
					r.winIDs[in.Addr] = id
					r.winLocs = append(r.winLocs, in.Addr)
				}
				in.Addr = id
			}
		}
		w = pipesim.ScheduleWith(r.opt.Machine, w, &r.winDeps)
		for i := range w.Instrs {
			if in := &w.Instrs[i]; in.Op.IsMem() {
				in.Addr = r.winLocs[in.Addr]
			}
		}
	}
	var err error
	for i := range w.Instrs {
		if _, err = r.pipe.Issue(w, i); err != nil {
			break
		}
	}
	r.window.Instrs, r.window.Extra = r.window.Instrs[:0], r.window.Extra[:0]
	return err
}

// location numbers element idx of the array with base Sym base and
// size elements, below zero where no translator Sym lies: an array's
// elements take one range on first touch, an index outside it a number
// of its own.
func (r *Runner) location(base ir.Sym, size, idx int64) (ir.Sym, error) {
	for int(base) >= len(r.ranges) {
		r.ranges = append(r.ranges, -1)
	}
	if r.ranges[base] < 0 {
		r.ranges[base] = r.nlocs
		r.nlocs += size
	}
	n := r.ranges[base] + idx
	if idx < 0 || idx >= size {
		k := stray{base, idx}
		var ok bool
		if n, ok = r.strays[k]; !ok {
			n = r.nlocs
			r.nlocs++
			r.strays[k] = n
		}
	}
	if n >= math.MaxInt32 {
		return 0, fmt.Errorf("the simulation touches more than %d memory locations", math.MaxInt32)
	}
	return ir.Sym(-1 - n), nil
}

// Run allocates arrays, seeds parameters, and executes the body.
func (r *Runner) Run() error {
	for _, s := range r.tbl.Symbols() {
		if s.IsConst {
			r.scalars[s.Name] = s.ConstVal
			continue
		}
		if !s.IsArray() {
			if _, ok := r.scalars[s.Name]; !ok {
				r.scalars[s.Name] = 0
			}
			continue
		}
		size := int64(1)
		dims := make([]int64, len(s.Dims))
		for i, d := range s.Dims {
			if d < 0 {
				// Symbolic extent: resolve from a scalar of the bound
				// expression if possible.
				v, err := r.evalInt(s.DimExprs[i])
				if err != nil {
					return fmt.Errorf("array %s: cannot resolve extent: %w", s.Name, err)
				}
				d = v
			}
			dims[i] = d
			size *= d
		}
		r.dims[s.Name] = dims
		if existing, ok := r.arrays[s.Name]; !ok || int64(len(existing)) < size {
			data := make([]float64, size)
			copy(data, existing)
			r.arrays[s.Name] = data
		}
	}
	return r.stmts(r.prog.Body, nil)
}

func (r *Runner) step() error {
	r.steps++
	if r.steps > r.maxOps {
		return fmt.Errorf("interp: exceeded %d statements (runaway loop?)", r.maxOps)
	}
	return nil
}

// stmts executes a statement list, charging straight-line runs to the
// pipeline as whole segments.
func (r *Runner) stmts(list []source.Stmt, loopVars []string) error {
	i := 0
	for i < len(list) {
		if j := source.RunEnd(list, i, nil); j > i {
			if err := r.straightRun(list[i:j], loopVars); err != nil {
				return err
			}
			i = j
			continue
		}
		switch x := list[i].(type) {
		case *source.DoLoop:
			if err := r.doLoop(x, loopVars); err != nil {
				return err
			}
		case *source.IfStmt:
			if err := r.ifStmt(x, loopVars); err != nil {
				return err
			}
		case *source.ReturnStmt:
			return nil
		default:
			return fmt.Errorf("%s: cannot execute %T", list[i].StmtPos(), list[i])
		}
		i++
	}
	return nil
}

// straightRun executes assignments for value and charges the lowered
// block for time.
func (r *Runner) straightRun(stmts []source.Stmt, loopVars []string) error {
	if err := r.step(); err != nil {
		return err
	}
	// Values.
	for _, s := range stmts {
		switch x := s.(type) {
		case *source.Assign:
			if err := r.execAssign(x); err != nil {
				return err
			}
		case *source.CallStmt:
			// External calls have no value semantics in the
			// interpreter; they cost linkage time only.
		}
	}
	// Timing.
	if r.pipe == nil {
		return nil
	}
	seg, err := r.segment(stmts, loopVars)
	if err != nil {
		return err
	}
	return r.charge(seg)
}

// segment returns the lowering of the straight-line run, cached under
// its first statement: a statement starts at most one run.
func (r *Runner) segment(run []source.Stmt, loopVars []string) (*cachedSeg, error) {
	if seg, ok := r.lowered[run[0]]; ok {
		return seg, nil
	}
	lw, err := r.trans.Body(run, loopVars)
	if err != nil {
		return nil, err
	}
	lw = lw.Clone() // kept past the translator's next pass
	seg := &cachedSeg{lw: lw, n: len(run), stride: maxReg(lw) + 1,
		inAddr: map[ir.Reg]ir.Sym{}, outAddr: map[ir.Reg]ir.Sym{}}
	for _, pv := range lw.Promoted {
		if pv.InReg != ir.NoReg {
			seg.inAddr[pv.InReg] = pv.Addr
		}
		if pv.OutReg != ir.NoReg {
			seg.outAddr[pv.OutReg] = pv.Addr
		}
	}
	r.lowered[run[0]] = seg
	return seg, nil
}

func maxReg(lw *lower.Lowered) ir.Reg {
	m := lw.Body.MaxReg()
	for _, b := range []*ir.Block{lw.Pre, lw.PerEntry, lw.Post} {
		if b == nil {
			continue
		}
		if p := b.MaxReg(); p > m {
			m = p
		}
	}
	if m < 0 {
		m = 0
	}
	return m
}

// charge feeds one dynamic instance of the segment to the pipeline,
// renaming registers and concretizing memory addresses.
func (r *Runner) charge(seg *cachedSeg) error {
	if !r.preDone[seg] {
		// The preheader shares the register numbering of the first body
		// instance, so hoisted values flow into their first uses.
		r.preDone[seg] = true
		if err := r.feed(seg.lw.Pre, seg, nil); err != nil {
			return err
		}
	}
	pm := r.promo[seg]
	if err := r.feed(seg.lw.Body, seg, seg.inAddr); err != nil {
		return err
	}
	// The final promoted values of this instance carry into the next
	// iteration's reads.
	if pm != nil {
		for outReg, addr := range seg.outAddr {
			pm[addr] = outReg + r.regBase
		}
	}
	r.regBase += seg.stride
	r.issues++
	if r.issues%4096 == 0 {
		r.pipe.Prune()
	}
	if r.regBase > 1<<30 {
		// Wrap the rename base: with in-order issue and a freshly
		// pruned scoreboard, old register numbers can no longer carry
		// stale timestamps that matter.
		r.pipe.Prune()
		r.regBase = 0
	}
	return nil
}

// feed streams one block instance into the pipeline; resolve maps
// static promoted registers to addresses whose current dynamic
// register is taken from the segment's promo map.
func (r *Runner) feed(b *ir.Block, seg *cachedSeg, resolve map[ir.Reg]ir.Sym) error {
	pm := r.promo[seg]
	for i := range b.Instrs {
		k := r.window.AppendFrom(b, i)
		srcs := r.window.Srcs(k)
		for j, s := range srcs {
			if s == ir.NoReg {
				continue
			}
			if resolve != nil && pm != nil {
				if addr, ok := resolve[s]; ok {
					if dyn, ok2 := pm[addr]; ok2 {
						srcs[j] = dyn
						continue
					}
				}
			}
			srcs[j] = s + r.regBase
		}
		c := &r.window.Instrs[k]
		if c.Dst != ir.NoReg {
			c.Dst += r.regBase
		}
		if c.Op.IsMem() && c.RefID != 0 {
			if ref := seg.lw.Refs[c.RefID-1]; ref != nil {
				idx, err := r.flatIndex(ref)
				if err != nil {
					return err
				}
				if c.Addr, err = r.location(c.Base, int64(len(r.arrays[ref.Name])), idx); err != nil {
					return err
				}
			}
		}
		if err := r.queued(); err != nil {
			return err
		}
	}
	return nil
}

// doLoop executes a DO loop, charging loop-control overhead per
// iteration and the bound computation once.
func (r *Runner) doLoop(l *source.DoLoop, loopVars []string) error {
	lb, err := r.evalInt(l.Lb)
	if err != nil {
		return err
	}
	ub, err := r.evalInt(l.Ub)
	if err != nil {
		return err
	}
	step := int64(1)
	if l.Step != nil {
		if step, err = r.evalInt(l.Step); err != nil {
			return err
		}
		if step == 0 {
			return fmt.Errorf("%s: zero loop step", l.Pos)
		}
	}
	inner := append(append([]string{}, loopVars...), l.Var)
	ctl := lower.LoopOverhead()
	var segs []*cachedSeg
	if r.pipe != nil {
		var err error
		segs, err = r.bodySegments(l.Body, inner)
		if err != nil {
			return err
		}
		for _, seg := range segs {
			pm := map[ir.Sym]ir.Reg{}
			r.promo[seg] = pm
			if len(seg.lw.PerEntry.Instrs) > 0 {
				if err := r.feed(seg.lw.PerEntry, seg, nil); err != nil {
					return err
				}
				for inReg, addr := range seg.inAddr {
					pm[addr] = inReg + r.regBase
				}
				r.regBase += seg.stride
			}
		}
	}
	v := lb
	for ; (step > 0 && v <= ub) || (step < 0 && v >= ub); v += step {
		if err := r.step(); err != nil {
			return err
		}
		r.scalars[l.Var] = float64(v)
		if err := r.stmts(l.Body, inner); err != nil {
			return err
		}
		if r.pipe != nil {
			if err := r.feedCtl(ctl); err != nil {
				return err
			}
		}
	}
	// Fortran semantics: after the loop the variable holds the first
	// value that failed the bound test.
	r.scalars[l.Var] = float64(v)
	// Flush promoted values back to memory (post stores) and retire the
	// activation's promo maps.
	for _, seg := range segs {
		if len(seg.lw.Post.Instrs) > 0 {
			if err := r.feed(seg.lw.Post, seg, seg.outAddr); err != nil {
				return err
			}
			r.regBase += seg.stride
		}
		delete(r.promo, seg)
	}
	return nil
}

// bodySegments lowers (or fetches) the straight-line runs directly in a
// loop body, so their per-entry and post blocks can be charged at
// activation boundaries.
func (r *Runner) bodySegments(list []source.Stmt, loopVars []string) ([]*cachedSeg, error) {
	var out []*cachedSeg
	i := 0
	for i < len(list) {
		j := source.RunEnd(list, i, nil)
		if j == i {
			i++
			continue
		}
		seg, err := r.segment(list[i:j], loopVars)
		if err != nil {
			return nil, err
		}
		out = append(out, seg)
		i = j
	}
	return out, nil
}

func (r *Runner) feedCtl(ctl *ir.Block) error {
	for i := range ctl.Instrs {
		k := r.window.AppendFrom(ctl, i)
		srcs := r.window.Srcs(k)
		for j := range srcs {
			srcs[j] += r.regBase
		}
		if c := &r.window.Instrs[k]; c.Dst != ir.NoReg {
			c.Dst += r.regBase
		}
		if err := r.queued(); err != nil {
			return err
		}
	}
	r.regBase += 8
	return nil
}

func (r *Runner) ifStmt(s *source.IfStmt, loopVars []string) error {
	if err := r.step(); err != nil {
		return err
	}
	taken, err := r.evalCond(s.Cond)
	if err != nil {
		return err
	}
	if r.pipe != nil {
		seg, err := r.condSegment(s.Cond, loopVars)
		if err != nil {
			return err
		}
		if err := r.charge(seg); err != nil {
			return err
		}
	}
	if taken {
		return r.stmts(s.Then, loopVars)
	}
	return r.stmts(s.Else, loopVars)
}

func (r *Runner) condSegment(cond source.Expr, loopVars []string) (*cachedSeg, error) {
	if seg, ok := r.condLow[cond]; ok {
		return seg, nil
	}
	lw, err := r.trans.Condition(cond, loopVars)
	if err != nil {
		return nil, err
	}
	seg := &cachedSeg{lw: lw.Clone(), stride: maxReg(lw) + 1}
	r.condLow[cond] = seg
	return seg, nil
}

// execAssign updates interpreter state.
func (r *Runner) execAssign(a *source.Assign) error {
	v, err := r.Eval(a.RHS)
	if err != nil {
		return err
	}
	switch lhs := a.LHS.(type) {
	case *source.VarRef:
		if sym := r.tbl.Lookup(lhs.Name); sym != nil && sym.Type == source.TypeInteger {
			v = math.Trunc(v)
		}
		r.scalars[lhs.Name] = v
		return nil
	case *source.ArrayRef:
		idx, err := r.flatIndex(lhs)
		if err != nil {
			return err
		}
		data := r.arrays[lhs.Name]
		if idx < 0 || idx >= int64(len(data)) {
			return fmt.Errorf("%s: index out of range for %s (flat %d, size %d)", lhs.Pos, lhs.Name, idx, len(data))
		}
		if sym := r.tbl.Lookup(lhs.Name); sym != nil && sym.Type == source.TypeInteger {
			v = math.Trunc(v)
		}
		if r.opt.MemTrace != nil {
			r.opt.MemTrace(lhs.Name, idx, true)
		}
		data[idx] = v
		return nil
	default:
		return fmt.Errorf("%s: bad assignment target", a.Pos)
	}
}

// flatIndex computes the 0-based flattened index of an array element.
func (r *Runner) flatIndex(ref *source.ArrayRef) (int64, error) {
	var buf [4]float64
	subs := buf[:0]
	for _, ix := range ref.Idx {
		v, err := r.Eval(ix)
		if err != nil {
			return 0, err
		}
		subs = append(subs, v)
	}
	return r.offset(ref, subs)
}

// offset computes the 0-based flattened index of the element of ref at
// the given subscript values, in Fortran column-major order with
// 1-based subscripts.
func (r *Runner) offset(ref *source.ArrayRef, subs []float64) (int64, error) {
	dims, ok := r.dims[ref.Name]
	if !ok {
		return 0, fmt.Errorf("%s: array %s has no resolved dimensions", ref.Pos, ref.Name)
	}
	var idx, stride int64 = 0, 1
	for d, v := range subs {
		idx += (int64(v) - 1) * stride
		stride *= dims[d]
	}
	return idx, nil
}

// element reads the element of ref at the given subscript values: the
// runner's sem.Env.Element.
func (r *Runner) element(ref *source.ArrayRef, subs []float64) (float64, error) {
	idx, err := r.offset(ref, subs)
	if err != nil {
		return 0, err
	}
	data := r.arrays[ref.Name]
	if idx < 0 || idx >= int64(len(data)) {
		return 0, fmt.Errorf("%s: index out of range for %s (flat %d, size %d)", ref.Pos, ref.Name, idx, len(data))
	}
	if r.opt.MemTrace != nil {
		r.opt.MemTrace(ref.Name, idx, false)
	}
	return data[idx], nil
}

// Eval evaluates e over the runner's current scalars and arrays, by
// the one F-lite arithmetic (*sem.Table).Eval defines.
func (r *Runner) Eval(e source.Expr) (float64, error) {
	return r.tbl.Eval(e, &r.env)
}

func (r *Runner) evalInt(e source.Expr) (int64, error) {
	v, err := r.Eval(e)
	if err != nil {
		return 0, err
	}
	return int64(v), nil
}

func (r *Runner) evalCond(e source.Expr) (bool, error) {
	switch x := e.(type) {
	case *source.BinExpr:
		if x.Kind.IsRelational() {
			l, err := r.Eval(x.L)
			if err != nil {
				return false, err
			}
			rv, err := r.Eval(x.R)
			if err != nil {
				return false, err
			}
			switch x.Kind {
			case source.BinLT:
				return l < rv, nil
			case source.BinLE:
				return l <= rv, nil
			case source.BinGT:
				return l > rv, nil
			case source.BinGE:
				return l >= rv, nil
			case source.BinEQ:
				return l == rv, nil
			case source.BinNE:
				return l != rv, nil
			}
		}
		if x.Kind == source.BinAnd {
			l, err := r.evalCond(x.L)
			if err != nil || !l {
				return false, err
			}
			return r.evalCond(x.R)
		}
		if x.Kind == source.BinOr {
			l, err := r.evalCond(x.L)
			if err != nil || l {
				return l, err
			}
			return r.evalCond(x.R)
		}
		return false, fmt.Errorf("%s: not a condition", x.Pos)
	case *source.UnExpr:
		if x.Neg {
			return false, fmt.Errorf("%s: arithmetic in condition", x.Pos)
		}
		v, err := r.evalCond(x.X)
		return !v, err
	default:
		return false, fmt.Errorf("condition %T is not logical", e)
	}
}
