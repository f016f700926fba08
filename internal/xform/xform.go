// Package xform implements the program-restructuring side of the
// framework (§3): loop transformations on the F-lite AST — unrolling,
// interchange, tiling (strip-mine and tile), fusion — with legality
// decided by the dependence tests of package deps, and a systematic
// best-first search over transformation sequences ranked by the
// predicted cost (§3.2: "the compiler can utilize graph search
// algorithms, such as the A* algorithm, to choose program
// transformation sequences systematically"). Predictions reuse a
// shared segment cache, realizing the incremental update of §3.3.1.
package xform

import (
	"fmt"
	"slices"

	"perfpredict/internal/deps"
	"perfpredict/internal/sem"
	"perfpredict/internal/source"
)

// Path addresses a statement in the program body by indices; each
// step descends into a DO loop's body.
type Path []int

// locate returns the statement list containing the target and the
// index within it.
func locate(p *source.Program, path Path) ([]source.Stmt, int, error) {
	list := p.Body
	for d := 0; d < len(path); d++ {
		i := path[d]
		if i < 0 || i >= len(list) {
			return nil, 0, fmt.Errorf("xform: path %v out of range", path)
		}
		if d == len(path)-1 {
			return list, i, nil
		}
		loop, ok := list[i].(*source.DoLoop)
		if !ok {
			return nil, 0, fmt.Errorf("xform: path %v passes through a non-loop", path)
		}
		list = loop.Body
	}
	return nil, 0, fmt.Errorf("xform: empty path")
}

// loopAt fetches the DO loop at path.
func loopAt(p *source.Program, path Path) (*source.DoLoop, error) {
	list, i, err := locate(p, path)
	if err != nil {
		return nil, err
	}
	loop, ok := list[i].(*source.DoLoop)
	if !ok {
		return nil, fmt.Errorf("xform: path %v is not a loop", path)
	}
	return loop, nil
}

// LoopSite describes one loop found in the program.
type LoopSite struct {
	Path Path
	Loop *source.DoLoop
	// Depth is the number of enclosing loops.
	Depth int
	// Innermost reports a body free of nested loops.
	Innermost bool
	// PerfectParent reports that the loop's body is exactly one nested
	// loop (candidate for interchange with it).
	PerfectParent bool
	// EnclosingVars lists enclosing loop variables, outermost first.
	EnclosingVars []string
}

// FindLoops enumerates the loops of a program (pre-order).
func FindLoops(p *source.Program) []LoopSite {
	var out []LoopSite
	var walk func(list []source.Stmt, prefix Path, vars []string)
	walk = func(list []source.Stmt, prefix Path, vars []string) {
		for i, s := range list {
			loop, ok := s.(*source.DoLoop)
			if !ok {
				continue
			}
			path := append(append(Path{}, prefix...), i)
			site := LoopSite{
				Path:          path,
				Loop:          loop,
				Depth:         len(vars),
				Innermost:     !containsLoop(loop.Body),
				EnclosingVars: append([]string{}, vars...),
			}
			if len(loop.Body) == 1 {
				if _, isLoop := loop.Body[0].(*source.DoLoop); isLoop {
					site.PerfectParent = true
				}
			}
			out = append(out, site)
			walk(loop.Body, path, append(vars, loop.Var))
		}
	}
	walk(p.Body, nil, nil)
	return out
}

func containsLoop(list []source.Stmt) bool {
	for _, s := range list {
		switch x := s.(type) {
		case *source.DoLoop:
			return true
		case *source.IfStmt:
			if containsLoop(x.Then) || containsLoop(x.Else) {
				return true
			}
		}
	}
	return false
}

// subst returns e with every read of variable v replaced by repl,
// sharing repl and each subtree that does not read v (a nil repl
// returns e itself).
func subst(e source.Expr, v string, repl source.Expr) source.Expr {
	if repl == nil {
		return e
	}
	switch x := e.(type) {
	case *source.VarRef:
		if x.Name == v {
			return repl
		}
	case *source.ArrayRef:
		if idx, ok := substList(x.Idx, v, repl); ok {
			return &source.ArrayRef{Name: x.Name, Idx: idx, Pos: x.Pos}
		}
	case *source.BinExpr:
		l, r := subst(x.L, v, repl), subst(x.R, v, repl)
		if l != x.L || r != x.R {
			return &source.BinExpr{Kind: x.Kind, L: l, R: r, Pos: x.Pos}
		}
	case *source.UnExpr:
		if y := subst(x.X, v, repl); y != x.X {
			return &source.UnExpr{Neg: x.Neg, X: y, Pos: x.Pos}
		}
	case *source.IntrinsicCall:
		if args, ok := substList(x.Args, v, repl); ok {
			return &source.IntrinsicCall{Name: x.Name, Args: args, Pos: x.Pos}
		}
	}
	return e
}

// substList is subst over a list; ok reports a fresh list with at
// least one member replaced.
func substList(list []source.Expr, v string, repl source.Expr) (out []source.Expr, ok bool) {
	for i, a := range list {
		b := subst(a, v, repl)
		if b != a && out == nil {
			out = slices.Clone(list)
		}
		if out != nil {
			out[i] = b
		}
	}
	return out, out != nil
}

// renewStmts returns fresh statements equal to list with reads of v
// replaced by repl (see subst). Every statement node is new, so the
// copy can sit in the same program as list; expressions not reading v
// are shared.
func renewStmts(list []source.Stmt, v string, repl source.Expr) []source.Stmt {
	if list == nil {
		return nil
	}
	out := make([]source.Stmt, len(list))
	for i, s := range list {
		out[i] = renewStmt(s, v, repl)
	}
	return out
}

func renewStmt(s source.Stmt, v string, repl source.Expr) source.Stmt {
	switch x := s.(type) {
	case *source.Assign:
		return &source.Assign{LHS: subst(x.LHS, v, repl), RHS: subst(x.RHS, v, repl), Pos: x.Pos}
	case *source.DoLoop:
		c := &source.DoLoop{Var: x.Var, Lb: subst(x.Lb, v, repl), Ub: subst(x.Ub, v, repl),
			Step: subst(x.Step, v, repl), Pos: x.Pos}
		if x.Var == v {
			repl = nil // the loop rebinds v in its body
		}
		c.Body = renewStmts(x.Body, v, repl)
		return c
	case *source.IfStmt:
		return &source.IfStmt{Cond: subst(x.Cond, v, repl), Then: renewStmts(x.Then, v, repl),
			Else: renewStmts(x.Else, v, repl), Pos: x.Pos}
	case *source.CallStmt:
		c := &source.CallStmt{Name: x.Name, Args: x.Args, Pos: x.Pos}
		if args, ok := substList(x.Args, v, repl); ok {
			c.Args = args
		}
		return c
	case *source.ContinueStmt:
		c := *x
		return &c
	case *source.ReturnStmt:
		c := *x
		return &c
	default:
		return s
	}
}

// Moves treat the AST as immutable: none writes a node of its input.
// Each checks legality on the read-only parent and path-copies — the
// program header and the statement lists and DO loops on the path to
// the rewritten nest are copied, every other node is shared with the
// parent. Fresh lists never alias a parent's backing array, so sibling
// variants of one parent cannot see each other's edits. A statement
// node still occurs at most once within one program (package interp
// keys segment lowerings by their first statement), so a body a move
// duplicates gets fresh statements for every copy after the first.
// Expression nodes that a copy does not rewrite are shared, also within
// one program: the per-node memos keyed on expressions (package lower's
// translator, package interp's condition lowerings) depend only on the
// node and its enclosing loops, which the copies have in common.

// edit returns a copy of p in which the statement list holding the
// target of path is replaced by repl(list, i): list is the parent's
// list, which repl must not modify, and i the target's index in it.
func edit(p *source.Program, path Path, repl func(list []source.Stmt, i int) []source.Stmt) (*source.Program, error) {
	body, err := editList(p.Body, path, path, repl)
	if err != nil {
		return nil, err
	}
	c := *p
	c.Body = body
	return &c, nil
}

// editList is edit for the list reached by the remaining steps rest of
// path: the loop at rest[0] is copied with its edited body.
func editList(list []source.Stmt, path, rest Path, repl func([]source.Stmt, int) []source.Stmt) ([]source.Stmt, error) {
	if len(rest) == 0 {
		return nil, fmt.Errorf("xform: empty path")
	}
	i := rest[0]
	if i < 0 || i >= len(list) {
		return nil, fmt.Errorf("xform: path %v out of range", path)
	}
	if len(rest) == 1 {
		return repl(list, i), nil
	}
	loop, ok := list[i].(*source.DoLoop)
	if !ok {
		return nil, fmt.Errorf("xform: path %v passes through a non-loop", path)
	}
	body, err := editList(loop.Body, path, rest[1:], repl)
	if err != nil {
		return nil, err
	}
	nl := *loop
	nl.Body = body
	out := slices.Clone(list)
	out[i] = &nl
	return out, nil
}

// replaceAt returns a fresh list: list with its n statements from i
// replaced by with.
func replaceAt(list []source.Stmt, i, n int, with ...source.Stmt) []source.Stmt {
	out := make([]source.Stmt, 0, len(list)-n+len(with))
	out = append(out, list[:i]...)
	out = append(out, with...)
	return append(out, list[i+n:]...)
}

// Unroll replicates the loop body factor times, stepping the loop by
// factor·step, and appends a remainder loop covering the leftover
// iterations. Unrolling reorders nothing, so it is always legal.
func Unroll(p *source.Program, path Path, factor int) (*source.Program, error) {
	return unroll(p, nil, path, factor)
}

// analyzed returns tbl, p's symbol table, analyzing p when tbl is nil.
func analyzed(p *source.Program, tbl *sem.Table) (*sem.Table, error) {
	if tbl != nil {
		return tbl, nil
	}
	return sem.Analyze(p)
}

// unroll is Unroll reading p's table tbl (nil: analyze p if needed).
func unroll(p *source.Program, tbl *sem.Table, path Path, factor int) (*source.Program, error) {
	if factor < 2 {
		return nil, fmt.Errorf("xform: unroll factor %d", factor)
	}
	loop, err := loopAt(p, path)
	if err != nil {
		return nil, err
	}
	step := int64(1)
	if loop.Step != nil {
		tbl, err := analyzed(p, tbl)
		if err != nil {
			return nil, err
		}
		sv, ok := tbl.IntConst(loop.Step)
		if !ok || sv == 0 {
			return nil, fmt.Errorf("xform: unroll requires a constant step")
		}
		step = sv
	}
	if step < 0 {
		return nil, fmt.Errorf("xform: unroll of downward loops unsupported")
	}
	f := int64(factor)

	// The first copy is the body itself; later copies substitute
	// var+k·step into fresh statements.
	newBody := make([]source.Stmt, 0, factor*len(loop.Body))
	newBody = append(newBody, loop.Body...)
	for k := int64(1); k < f; k++ {
		repl := &source.BinExpr{
			Kind: source.BinAdd,
			L:    &source.VarRef{Name: loop.Var},
			R:    &source.NumLit{Value: float64(k * step)},
		}
		newBody = append(newBody, renewStmts(loop.Body, loop.Var, repl)...)
	}

	// Remainder loop: starts where the main loop stopped:
	// lb + ((ub−lb+step)/(f·step))·(f·step).
	trips := &source.BinExpr{Kind: source.BinDiv,
		L: &source.BinExpr{Kind: source.BinAdd,
			L: &source.BinExpr{Kind: source.BinSub, L: loop.Ub, R: loop.Lb},
			R: &source.NumLit{Value: float64(step)}},
		R: &source.NumLit{Value: float64(f * step)},
	}
	remLb := &source.BinExpr{Kind: source.BinAdd,
		L: loop.Lb,
		R: &source.BinExpr{Kind: source.BinMul, L: trips, R: &source.NumLit{Value: float64(f * step)}},
	}
	remainder := &source.DoLoop{
		Var:  loop.Var,
		Lb:   remLb,
		Ub:   loop.Ub,
		Step: loop.Step,
		Body: renewStmts(loop.Body, loop.Var, nil),
		Pos:  loop.Pos,
	}

	// Main loop: ub − (f−1)·step with step f·step.
	unrolled := *loop
	unrolled.Ub = &source.BinExpr{Kind: source.BinSub,
		L: loop.Ub,
		R: &source.NumLit{Value: float64((f - 1) * step)},
	}
	unrolled.Step = &source.NumLit{Value: float64(f * step)}
	unrolled.Body = newBody
	return edit(p, path, func(list []source.Stmt, i int) []source.Stmt {
		return replaceAt(list, i, 1, &unrolled, remainder)
	})
}

// Interchange swaps a loop with the single loop its body consists of.
// Legal when the nest is perfect, the inner bounds do not reference the
// outer variable, and no dependence direction vector forbids the swap.
func Interchange(p *source.Program, path Path) (*source.Program, error) {
	return interchange(p, nil, path)
}

// interchange is Interchange reading p's table tbl (nil: analyze p).
func interchange(p *source.Program, tbl *sem.Table, path Path) (*source.Program, error) {
	outer, err := loopAt(p, path)
	if err != nil {
		return nil, err
	}
	if len(outer.Body) != 1 {
		return nil, fmt.Errorf("xform: interchange requires a perfect nest")
	}
	inner, ok := outer.Body[0].(*source.DoLoop)
	if !ok {
		return nil, fmt.Errorf("xform: interchange requires a nested loop")
	}
	if exprUsesVar(inner.Lb, outer.Var) || exprUsesVar(inner.Ub, outer.Var) {
		return nil, fmt.Errorf("xform: inner bounds depend on the outer variable")
	}
	tbl, err = analyzed(p, tbl)
	if err != nil {
		return nil, err
	}
	ds := deps.Analyze(tbl, []*source.DoLoop{outer, inner}, inner.Body)
	if !deps.InterchangeLegal(ds, 0, 1) {
		return nil, fmt.Errorf("xform: interchange is illegal (dependence)")
	}
	no, ni := *outer, *inner
	no.Var, ni.Var = inner.Var, outer.Var
	no.Lb, ni.Lb = inner.Lb, outer.Lb
	no.Ub, ni.Ub = inner.Ub, outer.Ub
	no.Step, ni.Step = inner.Step, outer.Step
	no.Body = []source.Stmt{&ni}
	return edit(p, path, func(list []source.Stmt, i int) []source.Stmt {
		return replaceAt(list, i, 1, &no)
	})
}

func exprUsesVar(e source.Expr, v string) bool {
	used := false
	var walk func(x source.Expr)
	walk = func(x source.Expr) {
		switch y := x.(type) {
		case *source.VarRef:
			if y.Name == v {
				used = true
			}
		case *source.ArrayRef:
			for _, ix := range y.Idx {
				walk(ix)
			}
		case *source.BinExpr:
			walk(y.L)
			walk(y.R)
		case *source.UnExpr:
			walk(y.X)
		case *source.IntrinsicCall:
			for _, a := range y.Args {
				walk(a)
			}
		}
	}
	if e != nil {
		walk(e)
	}
	return used
}

// Tile strip-mines a loop into a tile loop and an element loop of the
// given size (always legal on its own). A fresh integer control
// variable `<var>_t` is declared.
func Tile(p *source.Program, path Path, size int) (*source.Program, error) {
	if size < 2 {
		return nil, fmt.Errorf("xform: tile size %d", size)
	}
	loop, err := loopAt(p, path)
	if err != nil {
		return nil, err
	}
	if loop.Step != nil {
		return nil, fmt.Errorf("xform: tiling stepped loops unsupported")
	}
	tileVar := loop.Var + "_t"
	if varDeclared(p, tileVar) {
		tileVar = tileVar + "t"
	}
	inner := &source.DoLoop{
		Var: loop.Var,
		Lb:  &source.VarRef{Name: tileVar},
		Ub: &source.IntrinsicCall{Name: "min", Args: []source.Expr{
			&source.BinExpr{Kind: source.BinAdd,
				L: &source.VarRef{Name: tileVar},
				R: &source.NumLit{Value: float64(size - 1)}},
			source.CloneExpr(loop.Ub),
		}},
		Body: loop.Body,
		Pos:  loop.Pos,
	}
	outer := *loop
	outer.Var = tileVar
	outer.Step = &source.NumLit{Value: float64(size)}
	outer.Body = []source.Stmt{inner}
	c, err := edit(p, path, func(list []source.Stmt, i int) []source.Stmt {
		return replaceAt(list, i, 1, &outer)
	})
	if err != nil {
		return nil, err
	}
	c.Decls = append(slices.Clip(p.Decls), &source.Decl{
		Type:  source.TypeInteger,
		Names: []*source.DeclName{{Name: tileVar}},
	})
	return c, nil
}

func varDeclared(p *source.Program, name string) bool {
	for _, d := range p.Decls {
		for _, n := range d.Names {
			if n.Name == name {
				return true
			}
		}
	}
	return false
}

// Distribute splits the loop at path into two loops after statement
// `cut` (loop fission). Distribution is the inverse of fusion: it is
// legal exactly when fusing the two result loops back would be, i.e.
// no dependence runs from the second part to a later iteration of the
// first.
func Distribute(p *source.Program, path Path, cut int) (*source.Program, error) {
	return distribute(p, nil, path, cut)
}

// distribute is Distribute reading p's table tbl (nil: analyze p).
func distribute(p *source.Program, tbl *sem.Table, path Path, cut int) (*source.Program, error) {
	loop, err := loopAt(p, path)
	if err != nil {
		return nil, err
	}
	if cut <= 0 || cut >= len(loop.Body) {
		return nil, fmt.Errorf("xform: cut %d outside body of %d statements", cut, len(loop.Body))
	}
	first := *loop
	first.Body = slices.Clone(loop.Body[:cut])
	second := &source.DoLoop{
		Var:  loop.Var,
		Lb:   loop.Lb,
		Ub:   loop.Ub,
		Step: loop.Step,
		Body: slices.Clone(loop.Body[cut:]),
		Pos:  loop.Pos,
	}
	tbl, err = analyzed(p, tbl)
	if err != nil {
		return nil, err
	}
	if !deps.FusionLegal(tbl, &first, second) {
		return nil, fmt.Errorf("xform: distribution at %d is illegal (loop-carried dependence across the cut)", cut)
	}
	return edit(p, path, func(list []source.Stmt, i int) []source.Stmt {
		return replaceAt(list, i, 1, &first, second)
	})
}

// Fuse merges the loop at path with the immediately following loop in
// the same statement list, when legal.
func Fuse(p *source.Program, path Path) (*source.Program, error) {
	return fuse(p, nil, path)
}

// fuse is Fuse reading p's table tbl (nil: analyze p).
func fuse(p *source.Program, tbl *sem.Table, path Path) (*source.Program, error) {
	list, i, err := locate(p, path)
	if err != nil {
		return nil, err
	}
	if i+1 >= len(list) {
		return nil, fmt.Errorf("xform: no following loop to fuse")
	}
	first, ok1 := list[i].(*source.DoLoop)
	second, ok2 := list[i+1].(*source.DoLoop)
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("xform: fusion requires two adjacent loops")
	}
	tbl, err = analyzed(p, tbl)
	if err != nil {
		return nil, err
	}
	if !deps.FusionLegal(tbl, first, second) {
		return nil, fmt.Errorf("xform: fusion is illegal")
	}
	fused := *first
	fused.Body = append(slices.Clip(first.Body), second.Body...)
	return edit(p, path, func(list []source.Stmt, i int) []source.Stmt {
		return replaceAt(list, i, 2, &fused)
	})
}
