package source

import "sync"

// NodeMemo memoises, per statement node, its digest (FingerprintStmt)
// and the set of names it references (StmtNames). Keys are node
// pointers, which is sound only because an AST is immutable once
// parsed: the transformation moves of package xform path-copy the
// statements they rewrite and share every other node, so a node that
// survives a move keeps its digest and names. With Merkle digests a
// candidate program costs one hash per new node on the copied spine;
// every shared subtree is a lookup.
//
// A memo retains every node it has seen, so its lifetime is one unit
// of work — one transformation search — never a long-lived cache. It
// is safe for concurrent use. A nil *NodeMemo is valid and computes
// every value without memoising.
type NodeMemo struct {
	mu sync.RWMutex
	m  map[Stmt]*nodeInfo
}

// nodeInfo is the memoised digest and name set of one statement; the
// names map is shared and read-only.
type nodeInfo struct {
	fp    Fingerprint
	names map[string]bool
}

// NewNodeMemo creates an empty memo.
func NewNodeMemo() *NodeMemo { return &NodeMemo{m: map[Stmt]*nodeInfo{}} }

// Stmt returns FingerprintStmt(s).
func (m *NodeMemo) Stmt(s Stmt) Fingerprint {
	if m == nil {
		return FingerprintStmt(s)
	}
	return m.info(s).fp
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

// AddNames adds the names s references to out, as StmtNames does.
func (m *NodeMemo) AddNames(s Stmt, out map[string]bool) {
	if m == nil {
		StmtNames(s, out)
		return
	}
	for n := range m.info(s).names {
		out[n] = true
	}
}

func (m *NodeMemo) info(s Stmt) *nodeInfo {
	m.mu.RLock()
	ni := m.m[s]
	m.mu.RUnlock()
	if ni != nil {
		return ni
	}
	ni = &nodeInfo{fp: digestStmt(s, m.Stmts), names: map[string]bool{}}
	stmtNames(s, ni.names, m.AddNames)
	m.mu.Lock()
	if prev := m.m[s]; prev != nil {
		ni = prev // a concurrent miss stored it first; both are equal
	} else {
		m.m[s] = ni
	}
	m.mu.Unlock()
	return ni
}
