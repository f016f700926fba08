package source

import (
	"fmt"
	"math"
)

// Fingerprint is a 128-bit structural hash of an AST fragment. Two
// fragments that parse to the same tree — regardless of the whitespace,
// comments, or statement formatting of the text they came from — have
// equal fingerprints; fragments differing in any operator, operand,
// bound, or statement hash differently (up to hash collisions, which at
// 128 bits are negligible for the cache and dedup uses here). Source
// positions are deliberately excluded, so re-printing and re-parsing a
// program leaves every fingerprint unchanged.
//
// Fingerprints are the identity the incremental re-pricing layer is
// built on: the transformation search deduplicates candidate programs
// by FingerprintProgram instead of printed source, and the nest-level
// cost cache (package aggregate) keys cached polynomials by the
// fingerprint of a loop nest combined with its pricing context.
type Fingerprint struct {
	Hi, Lo uint64
}

// IsZero reports whether f is the zero fingerprint (no data hashed —
// never produced by the hashers below, which mix non-zero offsets).
func (f Fingerprint) IsZero() bool { return f.Hi == 0 && f.Lo == 0 }

// String renders the fingerprint as 32 hex digits.
func (f Fingerprint) String() string { return fmt.Sprintf("%016x%016x", f.Hi, f.Lo) }

// Mix folds another fingerprint into f, producing a composite key.
func (f Fingerprint) Mix(g Fingerprint) Fingerprint {
	w := fpWriter{f}
	w.fp(g)
	return w.f
}

// MixString folds a string into f.
func (f Fingerprint) MixString(s string) Fingerprint {
	w := fpWriter{f}
	w.str(s)
	return w.f
}

// MixUint64 folds an integer into f.
func (f Fingerprint) MixUint64(v uint64) Fingerprint {
	w := fpWriter{f}
	w.u64(v)
	return w.f
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
	// fpOffsetHi seeds the second lane so the two 64-bit streams
	// decorrelate (the golden-ratio constant of splitmix64).
	fpOffsetHi = 0x9e3779b97f4a7c15
)

// fpWriter is a two-lane FNV-1a stream over a canonical byte encoding
// of AST nodes. Both lanes see every byte; the high lane perturbs each
// byte so the lanes disagree on permuted inputs.
type fpWriter struct {
	f Fingerprint
}

func newFPWriter() fpWriter {
	return fpWriter{Fingerprint{Hi: fpOffsetHi, Lo: fnvOffset64}}
}

func (w *fpWriter) byte(c byte) {
	w.f.Lo = (w.f.Lo ^ uint64(c)) * fnvPrime64
	w.f.Hi = (w.f.Hi ^ (uint64(c) + 0x63)) * fnvPrime64
}

func (w *fpWriter) u64(v uint64) {
	for i := 0; i < 8; i++ {
		w.byte(byte(v >> (8 * i)))
	}
}

func (w *fpWriter) f64(v float64) { w.u64(math.Float64bits(v)) }

// str writes a length-prefixed string, so "ab"+"c" and "a"+"bc" hash
// differently.
func (w *fpWriter) str(s string) {
	w.u64(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		w.byte(s[i])
	}
}

// Node tags. Every node kind gets a distinct byte so trees with
// different shapes cannot collide by concatenation.
const (
	fpTagNil byte = iota
	fpTagNumLit
	fpTagVarRef
	fpTagArrayRef
	fpTagIntrinsic
	fpTagUnExpr
	fpTagBinExpr
	fpTagAssign
	fpTagDoLoop
	fpTagIfStmt
	fpTagCallStmt
	fpTagContinue
	fpTagReturn
	fpTagDecl
	fpTagConst
	fpTagDist
	fpTagProgram
	fpTagStmts
	fpTagEnv
)

func (w *fpWriter) expr(e Expr) {
	switch x := e.(type) {
	case nil:
		w.byte(fpTagNil)
	case *NumLit:
		w.byte(fpTagNumLit)
		w.f64(x.Value)
		if x.IsReal {
			w.byte(1)
		} else {
			w.byte(0)
		}
	case *VarRef:
		w.byte(fpTagVarRef)
		w.str(x.Name)
	case *ArrayRef:
		w.byte(fpTagArrayRef)
		w.str(x.Name)
		w.u64(uint64(len(x.Idx)))
		for _, ix := range x.Idx {
			w.expr(ix)
		}
	case *IntrinsicCall:
		w.byte(fpTagIntrinsic)
		w.str(x.Name)
		w.u64(uint64(len(x.Args)))
		for _, a := range x.Args {
			w.expr(a)
		}
	case *UnExpr:
		w.byte(fpTagUnExpr)
		if x.Neg {
			w.byte(1)
		} else {
			w.byte(0)
		}
		w.expr(x.X)
	case *BinExpr:
		w.byte(fpTagBinExpr)
		w.byte(byte(x.Kind))
		w.expr(x.L)
		w.expr(x.R)
	default:
		w.byte(0xff)
	}
}

// fp writes a child digest.
func (w *fpWriter) fp(f Fingerprint) {
	w.u64(f.Hi)
	w.u64(f.Lo)
}

// digestStmt hashes one statement. Digests are Merkle: a compound
// statement mixes the digests of its bodies, obtained from list, rather
// than re-streaming their nodes. FingerprintStmt passes the plain
// recursive hasher and NodeMemo its memoised one; both compute the same
// value, so memoisation never changes a key.
func digestStmt(s Stmt, list func([]Stmt) Fingerprint) Fingerprint {
	w := newFPWriter()
	switch x := s.(type) {
	case *Assign:
		w.byte(fpTagAssign)
		w.expr(x.LHS)
		w.expr(x.RHS)
	case *DoLoop:
		w.byte(fpTagDoLoop)
		w.str(x.Var)
		w.expr(x.Lb)
		w.expr(x.Ub)
		w.expr(x.Step) // nil hashes as fpTagNil
		w.fp(list(x.Body))
	case *IfStmt:
		w.byte(fpTagIfStmt)
		w.expr(x.Cond)
		w.fp(list(x.Then))
		if x.Else == nil {
			w.byte(0)
		} else {
			w.byte(1)
			w.fp(list(x.Else))
		}
	case *CallStmt:
		w.byte(fpTagCallStmt)
		w.str(x.Name)
		w.u64(uint64(len(x.Args)))
		for _, a := range x.Args {
			w.expr(a)
		}
	case *ContinueStmt:
		w.byte(fpTagContinue)
	case *ReturnStmt:
		w.byte(fpTagReturn)
	default:
		w.byte(0xfe)
	}
	return w.f
}

// digestList hashes a statement list from its members' digests.
func digestList(list []Stmt, one func(Stmt) Fingerprint) Fingerprint {
	w := newFPWriter()
	w.byte(fpTagStmts)
	w.u64(uint64(len(list)))
	for _, s := range list {
		w.fp(one(s))
	}
	return w.f
}

func (w *fpWriter) decl(d *Decl) {
	w.byte(fpTagDecl)
	w.byte(byte(d.Type))
	w.u64(uint64(len(d.Names)))
	for _, n := range d.Names {
		w.str(n.Name)
		w.u64(uint64(len(n.Dims)))
		for _, dim := range n.Dims {
			w.expr(dim)
		}
	}
}

func (w *fpWriter) declName(t Type, n *DeclName) {
	w.byte(fpTagDecl)
	w.byte(byte(t))
	w.str(n.Name)
	w.u64(uint64(len(n.Dims)))
	for _, dim := range n.Dims {
		w.expr(dim)
	}
}

func (w *fpWriter) konst(c *Const) {
	w.byte(fpTagConst)
	w.str(c.Name)
	w.expr(c.Value)
}

func (w *fpWriter) dist(d *Distribute) {
	w.byte(fpTagDist)
	w.str(d.Array)
	w.u64(uint64(len(d.Pattern)))
	for _, p := range d.Pattern {
		w.str(p)
	}
}

// FingerprintExpr hashes one expression subtree.
func FingerprintExpr(e Expr) Fingerprint {
	w := newFPWriter()
	w.expr(e)
	return w.f
}

// FingerprintStmt hashes one statement subtree.
func FingerprintStmt(s Stmt) Fingerprint { return digestStmt(s, FingerprintStmts) }

// FingerprintStmts hashes a statement list.
func FingerprintStmts(list []Stmt) Fingerprint { return digestList(list, FingerprintStmt) }

// FingerprintProgram hashes a whole program — name, parameters,
// declarations, constants, distribution directives, and body. It is
// the fingerprint equivalent of keying by PrintProgram: two programs
// hash equal iff they are the same tree.
func FingerprintProgram(p *Program) Fingerprint { return digestProgram(p, FingerprintStmts(p.Body)) }

// digestProgram hashes a program whose body digest is already known.
func digestProgram(p *Program, body Fingerprint) Fingerprint {
	w := newFPWriter()
	w.byte(fpTagProgram)
	w.str(p.Name)
	w.u64(uint64(len(p.Params)))
	for _, s := range p.Params {
		w.str(s)
	}
	w.u64(uint64(len(p.Decls)))
	for _, d := range p.Decls {
		w.decl(d)
	}
	w.u64(uint64(len(p.Consts)))
	for _, c := range p.Consts {
		w.konst(c)
	}
	w.u64(uint64(len(p.Dists)))
	for _, d := range p.Dists {
		w.dist(d)
	}
	w.fp(body)
	return w.f
}

// FingerprintEnv hashes the pricing environment of a program — its
// parameters, declarations, constants, and distribution directives,
// but not its body or name. Cost-cache entries that depend on variable
// types, array shapes, and parameter constants key on this (or on the
// filtered variant below) so entries cannot leak between programs with
// conflicting declarations.
func FingerprintEnv(p *Program) Fingerprint {
	w := newFPWriter()
	w.byte(fpTagEnv)
	w.u64(uint64(len(p.Params)))
	for _, s := range p.Params {
		w.str(s)
	}
	for _, d := range p.Decls {
		w.decl(d)
	}
	for _, c := range p.Consts {
		w.konst(c)
	}
	for _, d := range p.Dists {
		w.dist(d)
	}
	return w.f
}

// FingerprintEnvFor hashes the part of the pricing environment visible
// to a fragment referencing the given names: every parameter and
// constant (constants fold transitively, so all are kept), plus only
// the declarations and distribution directives of referenced names.
// This makes the environment key of an unchanged loop nest survive
// moves that only extend the declaration list (e.g. tiling declaring a
// fresh control variable the nest never mentions).
func FingerprintEnvFor(p *Program, names map[string]bool) Fingerprint {
	w := newFPWriter()
	w.byte(fpTagEnv)
	w.u64(uint64(len(p.Params)))
	for _, s := range p.Params {
		w.str(s)
	}
	for _, d := range p.Decls {
		for _, n := range d.Names {
			if names[n.Name] {
				w.declName(d.Type, n)
			}
		}
	}
	for _, c := range p.Consts {
		w.konst(c)
	}
	for _, d := range p.Dists {
		if names[d.Array] {
			w.dist(d)
		}
	}
	return w.f
}

// StmtNames collects every identifier referenced in a statement
// subtree — scalar and array names, loop variables, and call targets —
// into out. The incremental re-pricing layer uses it to restrict a
// nest's cache key to the loop variables and declarations the nest can
// actually observe.
func StmtNames(s Stmt, out map[string]bool) {
	switch x := s.(type) {
	case *Assign:
		ExprNames(x.LHS, out)
		ExprNames(x.RHS, out)
	case *DoLoop:
		out[x.Var] = true
		ExprNames(x.Lb, out)
		ExprNames(x.Ub, out)
		ExprNames(x.Step, out)
		for _, b := range x.Body {
			StmtNames(b, out)
		}
	case *IfStmt:
		ExprNames(x.Cond, out)
		for _, b := range x.Then {
			StmtNames(b, out)
		}
		for _, b := range x.Else {
			StmtNames(b, out)
		}
	case *CallStmt:
		out[x.Name] = true
		for _, a := range x.Args {
			ExprNames(a, out)
		}
	}
}

// ExprNames collects every identifier referenced in an expression tree
// into out. A nil expression is a no-op.
func ExprNames(e Expr, out map[string]bool) {
	switch x := e.(type) {
	case *VarRef:
		out[x.Name] = true
	case *ArrayRef:
		out[x.Name] = true
		for _, ix := range x.Idx {
			ExprNames(ix, out)
		}
	case *BinExpr:
		ExprNames(x.L, out)
		ExprNames(x.R, out)
	case *UnExpr:
		ExprNames(x.X, out)
	case *IntrinsicCall:
		for _, a := range x.Args {
			ExprNames(a, out)
		}
	}
}
