// Package cachemodel implements the memory-access cost estimation of
// §2.3: "the total number of cache line accesses is counted and the
// cost of filling these cache lines is used to approximate the memory
// cost" — the algorithm of Ferrante, Sarkar and Thrash ("On estimating
// and enhancing cache effectiveness", LCPC 1991), adapted to F-lite
// loop nests. References to the same array whose subscripts differ
// only by constants form one *reference group* with spatial/group
// reuse; loops absent from a group's subscripts provide temporal reuse
// only while the data touched between their iterations fits in cache.
package cachemodel

import (
	"fmt"
	"sort"
	"strings"

	"perfpredict/internal/machine"
	"perfpredict/internal/sem"
	"perfpredict/internal/source"
)

// Config describes the cache geometry the model prices against.
type Config struct {
	SizeBytes int64
	LineBytes int64
	ElemBytes int64 // array element size (REAL = 8)
	// MissPenalty is the line-fill cost in cycles.
	MissPenalty int64
	// TLBPageBytes and TLBEntries, when nonzero, add a TLB term.
	TLBPageBytes int64
	TLBEntries   int64
	TLBPenalty   int64
}

// DefaultConfig is the POWER1 data cache plus its TLB, derived from
// the declared hierarchy rather than hand-maintained constants.
func DefaultConfig() Config {
	return ConfigFromHierarchy(machine.POWER1Memory())
}

// Loop describes one nest level (outermost first) with concrete trip
// count.
type Loop struct {
	Var   string
	Trips int64
}

// GroupEstimate reports one reference group's contribution.
type GroupEstimate struct {
	Array string
	// Leader is a representative reference text.
	Leader string
	// Refs counts the references merged into the group.
	Refs int
	// Misses is the estimated line misses for the whole nest.
	Misses int64
}

// Estimate is the nest-level result.
type Estimate struct {
	Groups []GroupEstimate
	// LineMisses is the total estimated cache-line fills.
	LineMisses int64
	// TLBMisses is the estimated TLB reloads.
	TLBMisses int64
	// Cycles is the memory cost: LineMisses·MissPenalty +
	// TLBMisses·TLBPenalty.
	Cycles int64
}

// EstimateNest counts the distinct cache lines accessed by the array
// references in the body of a loop nest with concrete trip counts.
func EstimateNest(tbl *sem.Table, loops []Loop, body []source.Stmt, cfg Config) (Estimate, error) {
	if cfg.ElemBytes <= 0 {
		cfg.ElemBytes = 8
	}
	groups, err := groupRefs(tbl, loops, body)
	if err != nil {
		return Estimate{}, err
	}
	var est Estimate
	misses := jointMisses(groups, loops, cfg.SizeBytes, cfg.LineBytes, cfg.ElemBytes)
	for i, g := range groups {
		est.Groups = append(est.Groups, GroupEstimate{
			Array:  g.array,
			Leader: g.leader,
			Refs:   len(g.refs),
			Misses: misses[i],
		})
		est.LineMisses += misses[i]
	}
	if cfg.TLBPageBytes > 0 {
		tlb := jointMisses(groups, loops, cfg.TLBPageBytes*cfg.TLBEntries, cfg.TLBPageBytes, cfg.ElemBytes)
		for _, m := range tlb {
			est.TLBMisses += m
		}
	}
	est.Cycles = est.LineMisses*cfg.MissPenalty + est.TLBMisses*cfg.TLBPenalty
	return est, nil
}

type varRole int

const (
	roleAbsent varRole = iota
	roleContiguous
	roleStrided
)

// refGroup is a set of references to one array whose subscripts differ
// only by constants.
type refGroup struct {
	array  string
	leader string
	// key is the subscript pattern with constants stripped.
	key string
	// dims[i] describes dimension i's use of loop variables:
	// var name and coefficient (0,"" when constant).
	dims []dimUse
	refs []*source.ArrayRef
	// dimSizes are the declared extents (for stride computation).
	dimSizes []int64
	// spanByDim tracks the constant-offset span within the group per
	// dimension (group reuse ignores it; kept for diagnostics).
	spanByDim []int64
}

type dimUse struct {
	v     string
	coeff int64
}

func (g *refGroup) varRole(v string) varRole {
	stridedSeen := roleAbsent
	for d, use := range g.dims {
		if use.v != v || use.coeff == 0 {
			continue
		}
		if d == 0 && abs64(use.coeff) == 1 {
			return roleContiguous
		}
		stridedSeen = roleStrided
	}
	return stridedSeen
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// groupRefs collects array references and merges group-reuse partners.
func groupRefs(tbl *sem.Table, loops []Loop, body []source.Stmt) ([]*refGroup, error) {
	loopVars := map[string]bool{}
	for _, l := range loops {
		loopVars[l.Var] = true
	}
	var refs []*source.ArrayRef
	collectArrayRefs(body, &refs)
	groups := map[string]*refGroup{}
	var order []string
	for _, r := range refs {
		sym := tbl.Lookup(r.Name)
		if sym == nil || !sym.IsArray() {
			continue
		}
		key, dims, ok := refKey(tbl, r, loopVars)
		if !ok {
			// Non-affine reference: price as touching a new line per
			// iteration of every loop (worst case), encoded as all
			// strided dims on a synthetic group.
			key = fmt.Sprintf("%s!nonaffine%d", r.Name, len(groups))
			dims = make([]dimUse, len(r.Idx))
			for i := range dims {
				if len(loops) > 0 {
					dims[i] = dimUse{v: loops[len(loops)-1].Var, coeff: 2}
				}
			}
		}
		full := r.Name + "|" + key
		g, exists := groups[full]
		if !exists {
			g = &refGroup{array: r.Name, leader: source.ExprString(r), key: key, dims: dims, dimSizes: sym.Dims}
			groups[full] = g
			order = append(order, full)
		}
		g.refs = append(g.refs, r)
	}
	out := make([]*refGroup, 0, len(order))
	for _, k := range order {
		out = append(out, groups[k])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].leader < out[j].leader })
	return out, nil
}

// refKey renders the loop-variable structure of a reference ignoring
// constant offsets, so b(i-1,j) and b(i+1,j) share a key.
func refKey(tbl *sem.Table, r *source.ArrayRef, loopVars map[string]bool) (string, []dimUse, bool) {
	parts := make([]string, len(r.Idx))
	dims := make([]dimUse, len(r.Idx))
	for i, ix := range r.Idx {
		a, ok := tbl.Affine(ix)
		if !ok {
			return "", nil, false
		}
		v, coeff, ok := a.LoopVar(loopVars)
		if !ok {
			return "", nil, false
		}
		dims[i] = dimUse{v: v, coeff: coeff}
		parts[i] = fmt.Sprintf("%d*%s", coeff, v)
	}
	return strings.Join(parts, ","), dims, true
}

// jointMisses implements the FST counting for all groups together,
// walking loops from innermost outward. At each level the *combined*
// footprint of everything touched inside decides whether reuse across
// that level's iterations survives:
//
//   - strided dimension: a new line per iteration, always multiplies;
//   - contiguous dimension: consecutive iterations share a line only
//     while the inner footprint fits in cache — otherwise the line is
//     evicted between uses and every iteration misses;
//   - absent variable: pure temporal reuse, again only while the inner
//     footprint fits.
func jointMisses(groups []*refGroup, loops []Loop, sizeBytes, lineBytes, elemBytes int64) []int64 {
	elemsPerLine := lineBytes / elemBytes
	if elemsPerLine < 1 {
		elemsPerLine = 1
	}
	lines := make([]int64, len(groups))
	for i := range lines {
		lines[i] = 1
	}
	for li := len(loops) - 1; li >= 0; li-- {
		l := loops[li]
		var footprint int64
		for _, n := range lines {
			footprint += n * lineBytes
		}
		fits := footprint <= sizeBytes
		for gi, g := range groups {
			switch g.varRole(l.Var) {
			case roleContiguous:
				if fits {
					lines[gi] *= maxI64(ceilDiv(l.Trips, elemsPerLine), 1)
				} else {
					lines[gi] *= maxI64(l.Trips, 1)
				}
			case roleStrided:
				lines[gi] *= maxI64(l.Trips, 1)
			case roleAbsent:
				if !fits {
					lines[gi] *= maxI64(l.Trips, 1)
				}
			}
		}
	}
	return lines
}

func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func collectArrayRefs(stmts []source.Stmt, out *[]*source.ArrayRef) {
	var walkExpr func(e source.Expr)
	walkExpr = func(e source.Expr) {
		switch x := e.(type) {
		case *source.ArrayRef:
			*out = append(*out, x)
			for _, ix := range x.Idx {
				walkExpr(ix)
			}
		case *source.BinExpr:
			walkExpr(x.L)
			walkExpr(x.R)
		case *source.UnExpr:
			walkExpr(x.X)
		case *source.IntrinsicCall:
			for _, a := range x.Args {
				walkExpr(a)
			}
		}
	}
	for _, s := range stmts {
		switch x := s.(type) {
		case *source.Assign:
			walkExpr(x.LHS)
			walkExpr(x.RHS)
		case *source.IfStmt:
			walkExpr(x.Cond)
			collectArrayRefs(x.Then, out)
			collectArrayRefs(x.Else, out)
		case *source.DoLoop:
			collectArrayRefs(x.Body, out)
		case *source.CallStmt:
			for _, a := range x.Args {
				walkExpr(a)
			}
		}
	}
}
