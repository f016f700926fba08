package source

import (
	"fmt"
	"strconv"
	"strings"
)

// Type is an F-lite scalar element type. It takes one byte: lowering
// keeps one per name and per expression node.
type Type uint8

const (
	TypeUnknown Type = iota
	TypeInteger
	TypeReal
)

func (t Type) String() string {
	switch t {
	case TypeInteger:
		return "integer"
	case TypeReal:
		return "real"
	default:
		return "unknown"
	}
}

// Program is a compiled unit: a PROGRAM or SUBROUTINE with
// declarations, HPF directives, and a statement body.
type Program struct {
	Name   string
	Params []string // subroutine dummy arguments
	Decls  []*Decl
	Consts []*Const
	Dists  []*Distribute
	Body   []Stmt
	Pos    Pos
}

// Decl declares one or more variables of a type; arrays carry their
// dimension extents (each an Expr, usually a constant or parameter).
type Decl struct {
	Type  Type
	Names []*DeclName
	Pos   Pos
}

// DeclName is a declared entity with optional array dimensions.
type DeclName struct {
	Name string
	Dims []Expr // empty for scalars
}

// Const is a PARAMETER (name = value) binding.
type Const struct {
	Name  string
	Value Expr
	Pos   Pos
}

// Distribute records an `!hpf$ distribute a(block, *)` directive.
type Distribute struct {
	Array string
	// Pattern per dimension: "block", "cyclic", or "*" (not
	// distributed).
	Pattern []string
	Pos     Pos
}

// Stmt is any statement node.
type Stmt interface {
	stmtNode()
	StmtPos() Pos
}

// Assign is lhs = rhs. The LHS is a VarRef or ArrayRef.
type Assign struct {
	LHS Expr
	RHS Expr
	Pos Pos
}

// DoLoop is `do v = lb, ub[, step] … end do`.
type DoLoop struct {
	Var    string
	Lb, Ub Expr
	Step   Expr // nil means 1
	Body   []Stmt
	Pos    Pos
}

// IfStmt is `if (cond) then … [else …] end if` (or the one-line form,
// represented with a single-statement Then and nil Else).
type IfStmt struct {
	Cond Expr
	Then []Stmt
	Else []Stmt // nil if absent
	Pos  Pos
}

// CallStmt is `call name(args)`.
type CallStmt struct {
	Name string
	Args []Expr
	Pos  Pos
}

// ContinueStmt is a no-op placeholder (`continue`).
type ContinueStmt struct{ Pos Pos }

// ReturnStmt ends subroutine execution.
type ReturnStmt struct{ Pos Pos }

func (*Assign) stmtNode()       {}
func (*DoLoop) stmtNode()       {}
func (*IfStmt) stmtNode()       {}
func (*CallStmt) stmtNode()     {}
func (*ContinueStmt) stmtNode() {}
func (*ReturnStmt) stmtNode()   {}

func (s *Assign) StmtPos() Pos       { return s.Pos }
func (s *DoLoop) StmtPos() Pos       { return s.Pos }
func (s *IfStmt) StmtPos() Pos       { return s.Pos }
func (s *CallStmt) StmtPos() Pos     { return s.Pos }
func (s *ContinueStmt) StmtPos() Pos { return s.Pos }
func (s *ReturnStmt) StmtPos() Pos   { return s.Pos }

// Expr is any expression node.
type Expr interface {
	exprNode()
	ExprPos() Pos
}

// BinKind enumerates binary operators.
type BinKind int

const (
	BinAdd BinKind = iota
	BinSub
	BinMul
	BinDiv
	BinPow
	BinLT
	BinLE
	BinGT
	BinGE
	BinEQ
	BinNE
	BinAnd
	BinOr
)

var binNames = map[BinKind]string{
	BinAdd: "+", BinSub: "-", BinMul: "*", BinDiv: "/", BinPow: "**",
	BinLT: ".lt.", BinLE: ".le.", BinGT: ".gt.", BinGE: ".ge.",
	BinEQ: ".eq.", BinNE: ".ne.", BinAnd: ".and.", BinOr: ".or.",
}

func (k BinKind) String() string { return binNames[k] }

// IsRelational reports comparison operators.
func (k BinKind) IsRelational() bool { return k >= BinLT && k <= BinNE }

// IsLogical reports .and./.or.
func (k BinKind) IsLogical() bool { return k == BinAnd || k == BinOr }

// BinExpr is a binary operation.
type BinExpr struct {
	Kind BinKind
	L, R Expr
	Pos  Pos
}

// UnExpr is unary minus or .not.
type UnExpr struct {
	Neg bool // true: -x, false: .not. x
	X   Expr
	Pos Pos
}

// NumLit is a numeric literal.
type NumLit struct {
	Value  float64
	IsReal bool
	Pos    Pos
}

// VarRef references a scalar variable (or parameter constant).
type VarRef struct {
	Name string
	Pos  Pos
}

// ArrayRef references an array element a(e1, e2, …).
type ArrayRef struct {
	Name string
	Idx  []Expr
	Pos  Pos
}

// IntrinsicCall is sqrt(x), abs(x), min(a,b), max(a,b), mod(a,b),
// int(x), real(x), dble(x).
type IntrinsicCall struct {
	Name string
	Args []Expr
	Pos  Pos
}

func (*BinExpr) exprNode()       {}
func (*UnExpr) exprNode()        {}
func (*NumLit) exprNode()        {}
func (*VarRef) exprNode()        {}
func (*ArrayRef) exprNode()      {}
func (*IntrinsicCall) exprNode() {}

func (e *BinExpr) ExprPos() Pos       { return e.Pos }
func (e *UnExpr) ExprPos() Pos        { return e.Pos }
func (e *NumLit) ExprPos() Pos        { return e.Pos }
func (e *VarRef) ExprPos() Pos        { return e.Pos }
func (e *ArrayRef) ExprPos() Pos      { return e.Pos }
func (e *IntrinsicCall) ExprPos() Pos { return e.Pos }

// Intrinsics lists the recognized intrinsic functions and their arity
// (−1 = variadic ≥ 2).
var Intrinsics = map[string]int{
	"sqrt": 1, "abs": 1, "min": -1, "max": -1, "mod": 2,
	"int": 1, "real": 1, "dble": 1, "exp": 1, "log": 1,
	"sin": 1, "cos": 1,
}

// ExprString renders an expression in F-lite syntax.
func ExprString(e Expr) string {
	var b strings.Builder
	writeExpr(&b, e)
	return b.String()
}

// writeExpr appends ExprString(e) to b: one writer for the whole tree,
// so a chain of n terms renders in O(n).
func writeExpr(b *strings.Builder, e Expr) {
	switch x := e.(type) {
	case *NumLit:
		if x.IsReal {
			s := fmt.Sprintf("%g", x.Value)
			b.WriteString(s)
			if !strings.ContainsAny(s, ".eE") {
				b.WriteString(".0")
			}
			return
		}
		b.WriteString(strconv.FormatInt(int64(x.Value), 10))
	case *VarRef:
		b.WriteString(x.Name)
	case *ArrayRef:
		writeCall(b, x.Name, x.Idx)
	case *IntrinsicCall:
		writeCall(b, x.Name, x.Args)
	case *UnExpr:
		if x.Neg {
			b.WriteString("(-")
		} else {
			b.WriteString("(.not. ")
		}
		writeExpr(b, x.X)
		b.WriteByte(')')
	case *BinExpr:
		op := x.Kind.String()
		if x.Kind.IsRelational() || x.Kind.IsLogical() {
			op = " " + op + " "
		}
		b.WriteByte('(')
		writeExpr(b, x.L)
		b.WriteString(op)
		writeExpr(b, x.R)
		b.WriteByte(')')
	default:
		b.WriteByte('?')
	}
}

// writeCall appends name(args) with the arguments comma-separated.
func writeCall(b *strings.Builder, name string, args []Expr) {
	b.WriteString(name)
	b.WriteByte('(')
	for i, a := range args {
		if i > 0 {
			b.WriteByte(',')
		}
		writeExpr(b, a)
	}
	b.WriteByte(')')
}

// CloneExpr deep-copies an expression tree.
func CloneExpr(e Expr) Expr {
	switch x := e.(type) {
	case *NumLit:
		c := *x
		return &c
	case *VarRef:
		c := *x
		return &c
	case *ArrayRef:
		c := &ArrayRef{Name: x.Name, Pos: x.Pos}
		for _, ix := range x.Idx {
			c.Idx = append(c.Idx, CloneExpr(ix))
		}
		return c
	case *IntrinsicCall:
		c := &IntrinsicCall{Name: x.Name, Pos: x.Pos}
		for _, a := range x.Args {
			c.Args = append(c.Args, CloneExpr(a))
		}
		return c
	case *UnExpr:
		return &UnExpr{Neg: x.Neg, X: CloneExpr(x.X), Pos: x.Pos}
	case *BinExpr:
		return &BinExpr{Kind: x.Kind, L: CloneExpr(x.L), R: CloneExpr(x.R), Pos: x.Pos}
	default:
		return e
	}
}

// CloneStmt deep-copies a statement tree.
func CloneStmt(s Stmt) Stmt {
	switch x := s.(type) {
	case *Assign:
		return &Assign{LHS: CloneExpr(x.LHS), RHS: CloneExpr(x.RHS), Pos: x.Pos}
	case *DoLoop:
		c := &DoLoop{Var: x.Var, Lb: CloneExpr(x.Lb), Ub: CloneExpr(x.Ub), Pos: x.Pos}
		if x.Step != nil {
			c.Step = CloneExpr(x.Step)
		}
		c.Body = CloneStmts(x.Body)
		return c
	case *IfStmt:
		c := &IfStmt{Cond: CloneExpr(x.Cond), Pos: x.Pos}
		c.Then = CloneStmts(x.Then)
		if x.Else != nil {
			c.Else = CloneStmts(x.Else)
		}
		return c
	case *CallStmt:
		c := &CallStmt{Name: x.Name, Pos: x.Pos}
		for _, a := range x.Args {
			c.Args = append(c.Args, CloneExpr(a))
		}
		return c
	case *ContinueStmt:
		cc := *x
		return &cc
	case *ReturnStmt:
		cc := *x
		return &cc
	default:
		return s
	}
}

// CloneStmts deep-copies a statement list.
func CloneStmts(list []Stmt) []Stmt {
	if list == nil {
		return nil
	}
	out := make([]Stmt, len(list))
	for i, s := range list {
		out[i] = CloneStmt(s)
	}
	return out
}

// CloneProgram deep-copies a program.
func CloneProgram(p *Program) *Program {
	c := &Program{Name: p.Name, Pos: p.Pos}
	c.Params = append([]string(nil), p.Params...)
	for _, d := range p.Decls {
		nd := &Decl{Type: d.Type, Pos: d.Pos}
		for _, n := range d.Names {
			dn := &DeclName{Name: n.Name}
			for _, dim := range n.Dims {
				dn.Dims = append(dn.Dims, CloneExpr(dim))
			}
			nd.Names = append(nd.Names, dn)
		}
		c.Decls = append(c.Decls, nd)
	}
	for _, k := range p.Consts {
		c.Consts = append(c.Consts, &Const{Name: k.Name, Value: CloneExpr(k.Value), Pos: k.Pos})
	}
	for _, d := range p.Dists {
		c.Dists = append(c.Dists, &Distribute{Array: d.Array, Pattern: append([]string(nil), d.Pattern...), Pos: d.Pos})
	}
	c.Body = CloneStmts(p.Body)
	return c
}
