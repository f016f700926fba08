package xform

import (
	"fmt"

	"perfpredict/internal/deps"
	"perfpredict/internal/sem"
	"perfpredict/internal/source"
)

// The deep-clone implementation of the moves that path-copying
// replaced: each deep-copies the whole program and rewrites the copy
// in place. They are the oracle of TestMovesMatchDeepClone — a move
// must produce exactly the program its deep-clone version does.

// cloneApply is Apply over the deep-clone moves.
func cloneApply(p *source.Program, m Move) (*source.Program, error) {
	switch m.Kind {
	case "unroll":
		return cloneUnroll(p, m.Path, m.Param)
	case "interchange":
		return cloneInterchange(p, m.Path)
	case "tile":
		return cloneTile(p, m.Path, m.Param)
	case "fuse":
		return cloneFuse(p, m.Path)
	case "distribute":
		return cloneDistribute(p, m.Path, m.Param)
	default:
		return nil, fmt.Errorf("xform: unknown move %q", m.Kind)
	}
}

// substituteVar replaces every read of variable v in e by repl, in
// place (the deep-clone moves rewrite their private copy).
func substituteVar(e source.Expr, v string, repl source.Expr) source.Expr {
	switch x := e.(type) {
	case *source.VarRef:
		if x.Name == v {
			return source.CloneExpr(repl)
		}
		return x
	case *source.ArrayRef:
		for i := range x.Idx {
			x.Idx[i] = substituteVar(x.Idx[i], v, repl)
		}
		return x
	case *source.BinExpr:
		x.L = substituteVar(x.L, v, repl)
		x.R = substituteVar(x.R, v, repl)
		return x
	case *source.UnExpr:
		x.X = substituteVar(x.X, v, repl)
		return x
	case *source.IntrinsicCall:
		for i := range x.Args {
			x.Args[i] = substituteVar(x.Args[i], v, repl)
		}
		return x
	default:
		return e
	}
}

func substituteStmts(list []source.Stmt, v string, repl source.Expr) {
	for _, s := range list {
		switch x := s.(type) {
		case *source.Assign:
			x.LHS = substituteVar(x.LHS, v, repl)
			x.RHS = substituteVar(x.RHS, v, repl)
		case *source.DoLoop:
			x.Lb = substituteVar(x.Lb, v, repl)
			x.Ub = substituteVar(x.Ub, v, repl)
			if x.Step != nil {
				x.Step = substituteVar(x.Step, v, repl)
			}
			if x.Var != v {
				substituteStmts(x.Body, v, repl)
			}
		case *source.IfStmt:
			x.Cond = substituteVar(x.Cond, v, repl)
			substituteStmts(x.Then, v, repl)
			substituteStmts(x.Else, v, repl)
		case *source.CallStmt:
			for i := range x.Args {
				x.Args[i] = substituteVar(x.Args[i], v, repl)
			}
		}
	}
}

// cloneUnroll is the deep-clone Unroll.
func cloneUnroll(p *source.Program, path Path, factor int) (*source.Program, error) {
	if factor < 2 {
		return nil, fmt.Errorf("xform: unroll factor %d", factor)
	}
	c := source.CloneProgram(p)
	loop, err := loopAt(c, path)
	if err != nil {
		return nil, err
	}
	step := int64(1)
	if loop.Step != nil {
		tbl, err := sem.Analyze(c)
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

	var newBody []source.Stmt
	for k := int64(0); k < f; k++ {
		copyBody := source.CloneStmts(loop.Body)
		if k > 0 {
			repl := &source.BinExpr{
				Kind: source.BinAdd,
				L:    &source.VarRef{Name: loop.Var},
				R:    &source.NumLit{Value: float64(k * step)},
			}
			substituteStmts(copyBody, loop.Var, repl)
		}
		newBody = append(newBody, copyBody...)
	}

	// Remainder loop: starts where the main loop stopped:
	// lb + ((ub−lb+step)/(f·step))·(f·step).
	trips := &source.BinExpr{Kind: source.BinDiv,
		L: &source.BinExpr{Kind: source.BinAdd,
			L: &source.BinExpr{Kind: source.BinSub, L: source.CloneExpr(loop.Ub), R: source.CloneExpr(loop.Lb)},
			R: &source.NumLit{Value: float64(step)}},
		R: &source.NumLit{Value: float64(f * step)},
	}
	remLb := &source.BinExpr{Kind: source.BinAdd,
		L: source.CloneExpr(loop.Lb),
		R: &source.BinExpr{Kind: source.BinMul, L: trips, R: &source.NumLit{Value: float64(f * step)}},
	}
	remainder := &source.DoLoop{
		Var:  loop.Var,
		Lb:   remLb,
		Ub:   source.CloneExpr(loop.Ub),
		Step: cloneStep(loop.Step),
		Body: source.CloneStmts(loop.Body),
		Pos:  loop.Pos,
	}

	// Main loop: ub − (f−1)·step with step f·step.
	loop.Ub = &source.BinExpr{Kind: source.BinSub,
		L: loop.Ub,
		R: &source.NumLit{Value: float64((f - 1) * step)},
	}
	loop.Step = &source.NumLit{Value: float64(f * step)}
	loop.Body = newBody

	list, i, err := locate(c, path)
	if err != nil {
		return nil, err
	}
	newList := append(append(append([]source.Stmt{}, list[:i+1]...), remainder), list[i+1:]...)
	if err := cloneReplaceList(c, path, newList); err != nil {
		return nil, err
	}
	return c, nil
}

// cloneReplaceList rewrites the statement list containing the target of
// path.
func cloneReplaceList(p *source.Program, path Path, newList []source.Stmt) error {
	if len(path) == 1 {
		p.Body = newList
		return nil
	}
	parent, err := loopAt(p, path[:len(path)-1])
	if err != nil {
		return err
	}
	parent.Body = newList
	return nil
}

// cloneInterchange is the deep-clone Interchange.
func cloneInterchange(p *source.Program, path Path) (*source.Program, error) {
	c := source.CloneProgram(p)
	outer, err := loopAt(c, path)
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
	tbl, err := sem.Analyze(c)
	if err != nil {
		return nil, err
	}
	ds := deps.Analyze(tbl, []*source.DoLoop{outer, inner}, inner.Body)
	if !deps.InterchangeLegal(ds, 0, 1) {
		return nil, fmt.Errorf("xform: interchange is illegal (dependence)")
	}
	outer.Var, inner.Var = inner.Var, outer.Var
	outer.Lb, inner.Lb = inner.Lb, outer.Lb
	outer.Ub, inner.Ub = inner.Ub, outer.Ub
	outer.Step, inner.Step = inner.Step, outer.Step
	return c, nil
}

// cloneTile is the deep-clone Tile.
func cloneTile(p *source.Program, path Path, size int) (*source.Program, error) {
	if size < 2 {
		return nil, fmt.Errorf("xform: tile size %d", size)
	}
	c := source.CloneProgram(p)
	loop, err := loopAt(c, path)
	if err != nil {
		return nil, err
	}
	if loop.Step != nil {
		return nil, fmt.Errorf("xform: tiling stepped loops unsupported")
	}
	tileVar := loop.Var + "_t"
	if varDeclared(c, tileVar) {
		tileVar = tileVar + "t"
	}
	c.Decls = append(c.Decls, &source.Decl{
		Type:  source.TypeInteger,
		Names: []*source.DeclName{{Name: tileVar}},
	})
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
	loop.Var = tileVar
	loop.Step = &source.NumLit{Value: float64(size)}
	loop.Body = []source.Stmt{inner}
	return c, nil
}

// cloneDistribute is the deep-clone Distribute.
func cloneDistribute(p *source.Program, path Path, cut int) (*source.Program, error) {
	c := source.CloneProgram(p)
	loop, err := loopAt(c, path)
	if err != nil {
		return nil, err
	}
	if cut <= 0 || cut >= len(loop.Body) {
		return nil, fmt.Errorf("xform: cut %d outside body of %d statements", cut, len(loop.Body))
	}
	second := &source.DoLoop{
		Var:  loop.Var,
		Lb:   source.CloneExpr(loop.Lb),
		Ub:   source.CloneExpr(loop.Ub),
		Step: cloneStep(loop.Step),
		Body: loop.Body[cut:],
		Pos:  loop.Pos,
	}
	loop.Body = loop.Body[:cut]
	tbl, err := sem.Analyze(c)
	if err != nil {
		return nil, err
	}
	if !deps.FusionLegal(tbl, loop, second) {
		return nil, fmt.Errorf("xform: distribution at %d is illegal (loop-carried dependence across the cut)", cut)
	}
	list, i, err := locate(c, path)
	if err != nil {
		return nil, err
	}
	newList := append(append(append([]source.Stmt{}, list[:i+1]...), second), list[i+1:]...)
	if err := cloneReplaceList(c, path, newList); err != nil {
		return nil, err
	}
	return c, nil
}

// cloneFuse is the deep-clone Fuse.
func cloneFuse(p *source.Program, path Path) (*source.Program, error) {
	c := source.CloneProgram(p)
	list, i, err := locate(c, path)
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
	tbl, err := sem.Analyze(c)
	if err != nil {
		return nil, err
	}
	if !deps.FusionLegal(tbl, first, second) {
		return nil, fmt.Errorf("xform: fusion is illegal")
	}
	first.Body = append(first.Body, second.Body...)
	newList := append(append([]source.Stmt{}, list[:i+1]...), list[i+2:]...)
	if err := cloneReplaceList(c, path, newList); err != nil {
		return nil, err
	}
	return c, nil
}

func cloneStep(s source.Expr) source.Expr {
	if s == nil {
		return nil
	}
	return source.CloneExpr(s)
}
