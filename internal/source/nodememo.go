package source

import "sync"

// NodeMemo memoises, per statement node, its digest (FingerprintStmt).
// Keys are node pointers, which is sound only because an AST is
// immutable once parsed: the transformation moves of package xform
// path-copy the statements they rewrite and share every other node, so
// a node that survives a move keeps its digest. With Merkle digests a
// candidate program costs one hash per new node on the copied spine;
// every shared subtree is a lookup.
//
// A memo retains every node it has seen, so its lifetime is one unit
// of work — one transformation search — never a long-lived cache. It
// is safe for concurrent use. A nil *NodeMemo is valid and computes
// every value without memoising.
type NodeMemo struct {
	mu sync.RWMutex
	m  map[Stmt]Fingerprint
}

// NewNodeMemo creates an empty memo.
func NewNodeMemo() *NodeMemo { return &NodeMemo{m: map[Stmt]Fingerprint{}} }

// Stmt returns FingerprintStmt(s).
func (m *NodeMemo) Stmt(s Stmt) Fingerprint {
	if m == nil {
		return FingerprintStmt(s)
	}
	m.mu.RLock()
	fp, ok := m.m[s]
	m.mu.RUnlock()
	if ok {
		return fp
	}
	fp = digestStmt(s, m.Stmts)
	m.mu.Lock()
	m.m[s] = fp // a concurrent miss may store it too; both are equal
	m.mu.Unlock()
	return fp
}

// Stmts returns FingerprintStmts(list).
func (m *NodeMemo) Stmts(list []Stmt) Fingerprint {
	if m == nil {
		return FingerprintStmts(list)
	}
	return digestList(list, m.Stmt)
}

// Program returns FingerprintProgram(p).
func (m *NodeMemo) Program(p *Program) Fingerprint {
	return digestProgram(p, m.Stmts(p.Body))
}
