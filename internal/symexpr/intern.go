package symexpr

import (
	"slices"
	"strconv"
	"strings"
	"sync"
)

// Monomial interning. Every distinct monomial is stored once,
// process-wide, as an immutable monoRec holding its sorted
// (variable, exponent) pairs, its total degree, its canonical key and
// its rendered text, all computed on first sight. Equal monomials are
// therefore equal pointers: polynomial arithmetic compares terms by
// pointer and orders them by (degree, key) without rebuilding either.
// The table grows with the number of distinct monomials, which is
// small (bounded by program unknowns × degrees), and it never evicts:
// a second record for a monomial still referenced by a live Poly would
// break the pointer-equality invariant the merges rely on.
//
// All entry points are safe for concurrent use.

type ve struct {
	v Var
	e int
}

// monoRec is an interned monomial. Records are immutable once
// published.
type monoRec struct {
	ves  []ve   // nonzero exponents, sorted by variable
	deg  int    // total degree: the sum of the exponents
	key  string // canonical "v^e*w^f" form, "" for the constant
	text string // the form String prints, e.g. "k·n^2"
}

// one is the constant monomial.
var one = &monoRec{}

// monoCmp orders monomials as String prints them: total degree
// descending, then canonical key ascending. Interning makes equal
// monomials identical, so pointer equality decides ties.
func monoCmp(a, b *monoRec) int {
	switch {
	case a == b:
		return 0
	case a.deg != b.deg:
		if a.deg > b.deg {
			return -1
		}
		return 1
	}
	return strings.Compare(a.key, b.key)
}

// degree returns the exponent of v in m.
func (m *monoRec) degree(v Var) int {
	for _, x := range m.ves {
		if x.v == v {
			return x.e
		}
	}
	return 0
}

// monomial returns m as a fresh Monomial map.
func (m *monoRec) monomial() Monomial {
	out := make(Monomial, len(m.ves))
	for _, x := range m.ves {
		out[x.v] = x.e
	}
	return out
}

// scratch is reusable working state: a pair buffer for building one
// monomial and a term buffer for collecting a result.
type scratch struct {
	ves   []ve
	terms []term
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// build interns the monomial whose (variable, exponent) pairs fill
// appends to pooled scratch, in any order: pairs are sorted by
// variable, repeated variables' exponents summed and zero exponents
// dropped first.
func build(fill func(ves []ve) []ve) *monoRec {
	sc := scratchPool.Get().(*scratch)
	ves := fill(sc.ves[:0])
	slices.SortFunc(ves, func(a, b ve) int { return strings.Compare(string(a.v), string(b.v)) })
	n := 0
	for _, x := range ves {
		if n > 0 && ves[n-1].v == x.v {
			ves[n-1].e += x.e
		} else {
			ves[n] = x
			n++
		}
		if ves[n-1].e == 0 {
			n--
		}
	}
	r := internVEs(ves[:n])
	sc.ves = ves
	scratchPool.Put(sc)
	return r
}

// monoOf interns a caller-supplied Monomial map.
func monoOf(m Monomial) *monoRec {
	return build(func(ves []ve) []ve {
		for v, e := range m {
			ves = append(ves, ve{v, e})
		}
		return ves
	})
}

// mul returns the product monomial a·b.
func (a *monoRec) mul(b *monoRec) *monoRec {
	switch {
	case a == one:
		return b
	case b == one:
		return a
	}
	return build(func(ves []ve) []ve { return append(append(ves, a.ves...), b.ves...) })
}

// withExp returns m with the exponent of v set to e (0 removes v).
func (m *monoRec) withExp(v Var, e int) *monoRec {
	return build(func(ves []ve) []ve {
		for _, x := range m.ves {
			if x.v != v {
				ves = append(ves, x)
			}
		}
		return append(ves, ve{v, e})
	})
}

// without returns m with v removed.
func (m *monoRec) without(v Var) *monoRec {
	if m.degree(v) == 0 {
		return m
	}
	return m.withExp(v, 0)
}

// rename returns m with every variable renamed through r, merging
// exponents of variables that collide.
func (m *monoRec) rename(r map[Var]Var) *monoRec {
	return build(func(ves []ve) []ve {
		for _, x := range m.ves {
			if nv, ok := r[x.v]; ok {
				x.v = nv
			}
			ves = append(ves, x)
		}
		return ves
	})
}

const internShardCount = 16

type internShard struct {
	mu sync.RWMutex
	m  map[uint64][]*monoRec // hash of the pairs → records with that hash
}

var internShards [internShardCount]internShard

func init() {
	for i := range internShards {
		internShards[i].m = map[uint64][]*monoRec{}
	}
}

// internVEs returns the record for the sorted, zero-free pairs ves,
// creating it on first sight. ves is copied, never retained. The read
// path performs no allocation.
func internVEs(ves []ve) *monoRec {
	if len(ves) == 0 {
		return one
	}
	h := hashVEs(ves)
	sh := &internShards[h%internShardCount]
	sh.mu.RLock()
	r := findRec(sh.m[h], ves)
	sh.mu.RUnlock()
	if r != nil {
		return r
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if r = findRec(sh.m[h], ves); r == nil {
		r = newMonoRec(ves)
		sh.m[h] = append(sh.m[h], r)
	}
	return r
}

func findRec(bucket []*monoRec, ves []ve) *monoRec {
	for _, r := range bucket {
		if slices.Equal(r.ves, ves) {
			return r
		}
	}
	return nil
}

// hashVEs is FNV-1a over the variable names and exponents.
func hashVEs(ves []ve) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, x := range ves {
		for i := 0; i < len(x.v); i++ {
			h ^= uint64(x.v[i])
			h *= prime64
		}
		h ^= uint64(x.e)
		h *= prime64
	}
	return h
}

func newMonoRec(ves []ve) *monoRec {
	r := &monoRec{ves: slices.Clone(ves)}
	var key, text strings.Builder
	for i, x := range r.ves {
		r.deg += x.e
		if i > 0 {
			key.WriteByte('*')
			text.WriteString("·")
		}
		key.WriteString(string(x.v))
		key.WriteByte('^')
		key.WriteString(strconv.Itoa(x.e))
		text.WriteString(string(x.v))
		switch {
		case x.e == 1:
		case x.e > 1:
			text.WriteString("^" + strconv.Itoa(x.e))
		default:
			text.WriteString("^(" + strconv.Itoa(x.e) + ")")
		}
	}
	r.key, r.text = key.String(), text.String()
	return r
}
