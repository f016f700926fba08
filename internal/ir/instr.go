package ir

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Reg is a virtual register. Lowering produces SSA-like code: every
// instruction that defines a value defines a fresh register, so the
// only register dependences are read-after-write.
type Reg int32

// NoReg marks an absent register operand.
const NoReg Reg = -1

// Sym names a text (a memory address such as "a(i,j+1)", an array base
// or a callee) by its index in a Names table. Sym 0 is the empty text,
// so the zero Instr names nothing.
type Sym int32

// Names interns the texts instructions refer to. A translator owns one
// table for its lifetime and every block it lowers points to it. A Sym
// means nothing in another table, so instructions move between blocks
// of one table only (AppendFrom checks). Equal Syms are equal texts.
// The table only grows; Intern must not run while another goroutine
// renders from it.
type Names struct {
	texts []string
	ids   map[string]Sym
}

// NewNames returns an empty table with room for n texts.
func NewNames(n int) *Names {
	t := &Names{ids: make(map[string]Sym, n+1), texts: make([]string, 1, n+1)}
	t.ids[""] = 0
	return t
}

// Reset empties the table, keeping its storage: the next text interned
// gets Sym 1 again.
func (t *Names) Reset() {
	clear(t.ids)
	t.ids[""] = 0
	clear(t.texts[1:])
	t.texts = t.texts[:1]
}

// Intern returns the Sym of s, adding s on first sight.
func (t *Names) Intern(s string) Sym {
	id, ok := t.ids[s]
	if !ok {
		id = Sym(len(t.texts))
		t.texts = append(t.texts, s)
		t.ids[s] = id
	}
	return id
}

// Text returns the text of s. A Sym outside the table (the tagged
// address of a replicated copy) renders as its number.
func (t *Names) Text(s Sym) string {
	if t != nil && s >= 0 && int(s) < len(t.texts) {
		return t.texts[s]
	}
	return "#" + strconv.Itoa(int(s))
}

// Instr is one basic operation instance, a fixed-size value: its texts
// are Syms and its sources sit inline (read them through Block.Srcs).
type Instr struct {
	Op   Op
	nsrc uint8 // inline source count, or spilled
	Dst  Reg
	// src holds up to three sources. An instruction with more keeps
	// them all in its block's Extra, at offset src[0], src[1] of them.
	src [3]Reg

	// Addr names the memory location of a load or store: two memory
	// operations with equal Addr access the same location in one
	// execution of the block; different addresses over the same array
	// are assumed distinct within an innermost-block instance (standard
	// for the straight-line blocks the cost model handles). Base is the
	// array symbol alone. An OpCall's Addr names the routine it calls.
	Addr Sym
	Base Sym

	// RefID is an opaque tag assigned by the translator linking a
	// memory instruction back to its source-level reference (used by
	// the interpreter to concretize addresses). Zero means untagged.
	RefID int32

	// Imm is the immediate for OpLoadImm and the known small-multiplier
	// value for the IMulSmall specialization check.
	Imm float64
}

// spilled marks an instruction whose sources live in Block.Extra.
const spilled = 0xff

// Block is a straight-line sequence of basic operations — the unit the
// Tetris cost model prices.
type Block struct {
	Instrs []Instr
	// Extra holds the sources of instructions with more than three.
	Extra []Reg
	// Names renders the block's Syms; nil when they have no text.
	Names *Names
}

// Append adds in with sources srcs (replacing any in holds) and
// returns its index.
func (b *Block) Append(in Instr, srcs ...Reg) int {
	in.src = [3]Reg{}
	if len(srcs) <= len(in.src) {
		in.nsrc = uint8(copy(in.src[:], srcs))
	} else {
		in.nsrc, in.src[0], in.src[1] = spilled, Reg(len(b.Extra)), Reg(len(srcs))
		b.Extra = append(b.Extra, srcs...)
	}
	b.Instrs = append(b.Instrs, in)
	return len(b.Instrs) - 1
}

// AppendFrom adds a copy of instruction i of src, sources included, and
// returns its index. The blocks must share one name table, or b must
// have none (its Syms are then bare location numbers).
func (b *Block) AppendFrom(src *Block, i int) int {
	if b.Names != nil && src.Names != nil && b.Names != src.Names {
		panic("ir: instruction copied between name tables")
	}
	return b.Append(src.Instrs[i], src.Srcs(i)...)
}

// Intern returns the Sym of s in b's table, creating the table if b has
// none.
func (b *Block) Intern(s string) Sym {
	if b.Names == nil {
		b.Names = NewNames(0)
	}
	return b.Names.Intern(s)
}

// Srcs returns the sources of instruction i. The slice is a view into
// b: writing it renames the sources.
func (b *Block) Srcs(i int) []Reg {
	in := &b.Instrs[i]
	if in.nsrc == spilled {
		return b.Extra[in.src[0] : in.src[0]+in.src[1] : in.src[0]+in.src[1]]
	}
	return in.src[:in.nsrc:in.nsrc]
}

// InstrString renders instruction i, its Syms as text.
func (b *Block) InstrString(i int) string {
	in := &b.Instrs[i]
	var sb strings.Builder
	sb.WriteString(in.Op.String())
	if in.Dst != NoReg && in.Op.HasDst() {
		fmt.Fprintf(&sb, " r%d", in.Dst)
	}
	for _, s := range b.Srcs(i) {
		if s != NoReg {
			fmt.Fprintf(&sb, ", r%d", s)
		}
	}
	switch {
	case in.Addr == 0:
	case in.Op == OpCall:
		fmt.Fprintf(&sb, ", @%s", b.Names.Text(in.Addr))
	default:
		fmt.Fprintf(&sb, ", [%s]", b.Names.Text(in.Addr))
	}
	if in.Op == OpLoadImm {
		fmt.Fprintf(&sb, ", #%g", in.Imm)
	}
	return sb.String()
}

// Clone returns a deep copy of the block; the copy shares the name
// table.
func (b *Block) Clone() *Block {
	return &Block{Instrs: slices.Clone(b.Instrs), Extra: slices.Clone(b.Extra), Names: b.Names}
}

func (b *Block) String() string {
	var sb strings.Builder
	for i := range b.Instrs {
		fmt.Fprintf(&sb, "%3d  %s\n", i, b.InstrString(i))
	}
	return sb.String()
}

// MaxReg returns the highest register number used, or -1 for none.
func (b *Block) MaxReg() Reg {
	hi := NoReg
	for i := range b.Instrs {
		hi = max(hi, b.Instrs[i].Dst)
		for _, s := range b.Srcs(i) {
			hi = max(hi, s)
		}
	}
	return hi
}

// Deps computes, for each instruction, the indices of earlier
// instructions it must wait for:
//
//   - register read-after-write (the SSA producer of each source);
//   - memory read-after-write, write-after-read and write-after-write
//     on identical address strings;
//   - stores to the same base array are ordered among themselves
//     conservatively when their address strings differ only if
//     mayAlias is set.
//
// This is the "filter" of the paper's cost objects: an operation that
// uses the result of another cannot drop past it into the bins.
func (b *Block) Deps(mayAlias bool) [][]int {
	return b.DepsInto(mayAlias, new(DepsBuf))
}

// DepsBuf is the reusable storage of DepsInto: the returned
// slice-of-slices, the arena its rows point into, and the working
// tables of the dependence scan. A caller that prices many blocks
// keeps one DepsBuf, and a warm one makes DepsInto allocate nothing.
// Edges are collected flat; because instructions are scanned in
// order, all edges of one instruction are contiguous at the tail,
// which makes deduplication a backward scan and the final bucketing a
// single pass.
type DepsBuf struct {
	deps  [][]int
	arena []int
	edges []depEdge
	// def maps reg - lo -> defining instr index (-1 if none), lo being
	// the block's lowest destination register. It grows lazily to the
	// highest reg actually defined, so its length is the span of the
	// block's destinations, whatever their numbers.
	def []int

	// addrs and bases hold the per-location state, indexed by address
	// and base Sym. A slot whose stamp is not gen is logically fresh and
	// is re-initialized on first touch, so reset never walks them.
	gen          uint32
	addrs, bases []locState
}

// DepsInto is Deps with caller-owned storage. The returned rows alias
// buf and are valid until the next DepsInto call with the same buf.
func (b *Block) DepsInto(mayAlias bool, buf *DepsBuf) [][]int {
	n := len(b.Instrs)
	buf.reset()

	// Index the def table from the block's lowest destination: a table
	// from zero costs a renamed trace window O(registers renamed so far).
	lo := NoReg
	for i := range b.Instrs {
		if in := &b.Instrs[i]; in.Op.HasDst() && in.Dst >= 0 && (lo < 0 || in.Dst < lo) {
			lo = in.Dst
		}
	}
	for i := range b.Instrs {
		in := &b.Instrs[i]
		for _, s := range b.Srcs(i) {
			// A source outside the def table has no recorded producer
			// (the table grows only when a def is seen).
			if s < lo || int(s-lo) >= len(buf.def) {
				continue
			}
			if p := buf.def[s-lo]; p >= 0 {
				buf.add(i, p)
			}
		}
		if in.Op.IsMem() {
			// Per-location state is indexed by Sym. The base tables are
			// only consulted under conservative aliasing.
			loc := buf.loc(&buf.addrs, in.Addr)
			var base *locState
			if mayAlias {
				base = buf.loc(&buf.bases, in.Base)
			}
			if in.Op.IsLoad() {
				if w := loc.write; w >= 0 {
					buf.add(i, w) // RAW same address
				}
				// Under conservative aliasing the last write to the
				// base may target this location through a different
				// subscript, even when the exact address also has a
				// writer: both dependences are real, and dropping the
				// base one lets a possibly-aliasing store reorder
				// around the load (found by the topo-perm invariant).
				if mayAlias {
					if w := base.write; w >= 0 {
						buf.add(i, w)
					}
					base.reads = append(base.reads, i)
				}
				loc.reads = append(loc.reads, i)
			} else { // store
				if w := loc.write; w >= 0 {
					buf.add(i, w) // WAW
				}
				for _, r := range loc.reads {
					buf.add(i, r) // WAR
				}
				if mayAlias {
					if w := base.write; w >= 0 {
						buf.add(i, w)
					}
					for _, r := range base.reads {
						buf.add(i, r)
					}
					base.reads, base.write = base.reads[:0], i
				}
				loc.reads, loc.write = loc.reads[:0], i
			}
		}
		if in.Op.HasDst() && in.Dst >= 0 {
			for len(buf.def) <= int(in.Dst-lo) {
				buf.def = append(buf.def, -1)
			}
			buf.def[in.Dst-lo] = i
		}
	}

	// Bucket the edge pairs into the returned slice-of-slices through a
	// single shared arena: two allocations total (zero on a warm buf)
	// instead of one small slice per instruction with dependences.
	if cap(buf.deps) < n {
		buf.deps = make([][]int, n, n+n/4)
	}
	deps := buf.deps[:n]
	clear(deps)
	if cap(buf.arena) < len(buf.edges) {
		buf.arena = make([]int, 0, len(buf.edges)+len(buf.edges)/4)
	}
	arena := buf.arena[:0]
	start := 0
	for k := 1; k <= len(buf.edges); k++ {
		if k == len(buf.edges) || buf.edges[k].i != buf.edges[start].i {
			lo := len(arena)
			for _, e := range buf.edges[start:k] {
				arena = append(arena, e.j)
			}
			deps[buf.edges[start].i] = arena[lo:len(arena):len(arena)]
			start = k
		}
	}
	buf.arena = arena[:0]
	return deps
}

// depEdge is one dependence pair (instruction i waits for j).
type depEdge struct{ i, j int }

// locState is one location's last writer (-1 if none) and its readers
// since that write.
type locState struct {
	gen   uint32
	write int
	reads []int
}

func (buf *DepsBuf) reset() {
	buf.edges = buf.edges[:0]
	buf.def = buf.def[:0]
	buf.gen++
	if buf.gen == 0 { // wrap: stale stamps could alias the new generation
		for _, tab := range [][]locState{buf.addrs, buf.bases} {
			for i := range tab {
				tab[i].gen = 0
			}
		}
		buf.gen = 1
	}
}

// loc returns the current-generation state of location id in tab,
// growing tab to reach it.
func (buf *DepsBuf) loc(tab *[]locState, id Sym) *locState {
	if int(id) >= len(*tab) {
		*tab = append(*tab, make([]locState, int(id)+1-len(*tab))...)
	}
	l := &(*tab)[id]
	if l.gen != buf.gen {
		l.gen, l.write, l.reads = buf.gen, -1, l.reads[:0]
	}
	return l
}

// add records that instruction i depends on j, skipping self/forward
// edges and duplicates (found by scanning the contiguous tail of edges
// already recorded for i).
func (buf *DepsBuf) add(i, j int) {
	if j < 0 || j >= i {
		return
	}
	for k := len(buf.edges) - 1; k >= 0 && buf.edges[k].i == i; k-- {
		if buf.edges[k].j == j {
			return
		}
	}
	buf.edges = append(buf.edges, depEdge{i, j})
}

// Counts returns a histogram of ops — the "operation-count based cost
// model" input that the paper's model improves upon.
func (b *Block) Counts() map[Op]int {
	out := map[Op]int{}
	for _, in := range b.Instrs {
		out[in.Op]++
	}
	return out
}
