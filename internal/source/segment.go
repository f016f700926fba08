package source

import "slices"

// Segmentation: how a statement list is cut into the straight-line
// blocks that are lowered and priced as one unit (the cost blocks of
// the paper's Figure 8). The predictor, the reference interpreter,
// explain mode and the block analysis all cut programs with these
// functions, so they agree on the blocks by construction.

// Straight reports whether s is a straight-line statement: one that
// joins the block around it rather than ending it. Loops, IFs and
// RETURN end a block.
func Straight(s Stmt) bool {
	switch s.(type) {
	case *Assign, *CallStmt, *ContinueStmt:
		return true
	default:
		return false
	}
}

// RunEnd returns the end of the maximal straight-line run of list
// starting at i: the first index at or after i holding a statement
// that is not Straight or that cut reports. It returns i when list[i]
// starts no run. A nil cut cuts nothing.
func RunEnd(list []Stmt, i int, cut func(Stmt) bool) int {
	for i < len(list) && Straight(list[i]) && (cut == nil || !cut(list[i])) {
		i++
	}
	return i
}

// Nest is one innermost loop nest: a DO loop whose body holds no loop
// or RETURN, and the loops enclosing it.
type Nest struct {
	// Loops is the loop chain, outermost first; empty for the depth-0
	// nest of a loop-free program.
	Loops []*DoLoop
	// Body is the innermost loop's body as straight-line code, IF
	// branches inlined in program order. When Straight it is the
	// loop's own statement slice, so callers must not modify it.
	Body []Stmt
	// Straight reports that Body is the loop body as written, with no
	// IF inlined.
	Straight bool
}

// Vars returns the nest's loop variables, outermost first.
func (n Nest) Vars() []string {
	vars := make([]string, len(n.Loops))
	for i, l := range n.Loops {
		vars[i] = l.Var
	}
	return vars
}

// Nests lists every innermost nest of list in program order. A loop
// whose body holds no loop or RETURN, even inside its IFs, is
// innermost; IFs outside innermost loops are searched like their
// enclosing list. A loop whose flattened body is empty yields no nest.
// When list yields none and is itself flattenable and non-empty, it is
// returned as one depth-0 nest.
func Nests(list []Stmt) []Nest {
	out := appendNests(nil, list, nil)
	if len(out) == 0 {
		if n, ok := flatNest(list, nil); ok {
			out = append(out, n)
		}
	}
	return out
}

func appendNests(out []Nest, list []Stmt, loops []*DoLoop) []Nest {
	for _, s := range list {
		switch x := s.(type) {
		case *DoLoop:
			inner := append(slices.Clip(loops), x)
			if n, ok := flatNest(x.Body, inner); ok {
				out = append(out, n)
				continue
			}
			out = appendNests(out, x.Body, inner)
		case *IfStmt:
			out = appendNests(out, x.Then, loops)
			out = appendNests(out, x.Else, loops)
		}
	}
	return out
}

// flatNest builds the nest of body under loops; ok is false when body
// holds a loop or RETURN or flattens to nothing.
func flatNest(body []Stmt, loops []*DoLoop) (Nest, bool) {
	if RunEnd(body, 0, nil) == len(body) {
		return Nest{Loops: loops, Body: body, Straight: true}, len(body) > 0
	}
	flat, ok := flatten(nil, body)
	return Nest{Loops: loops, Body: flat}, ok && len(flat) > 0
}

// flatten appends list to out as straight-line code, inlining IF
// branches in program order; ok is false when list holds a loop or
// RETURN anywhere.
func flatten(out, list []Stmt) ([]Stmt, bool) {
	for _, s := range list {
		if Straight(s) {
			out = append(out, s)
			continue
		}
		x, ok := s.(*IfStmt)
		if !ok {
			return nil, false
		}
		if out, ok = flatten(out, x.Then); !ok {
			return nil, false
		}
		if out, ok = flatten(out, x.Else); !ok {
			return nil, false
		}
	}
	return out, true
}

// Innermost returns the block the single-block analysis prices: the
// first of the deepest nests whose body is straight as written. ok is
// false when no nest qualifies.
func Innermost(list []Stmt) (n Nest, ok bool) {
	for _, c := range Nests(list) {
		if c.Straight && (!ok || len(c.Loops) > len(n.Loops)) {
			n, ok = c, true
		}
	}
	return n, ok
}
