package tetris

import (
	"fmt"
	"strings"
)

var _ slotOccupancy = (*slotList)(nil)

// slotList stores the occupancy of one functional-unit pipe as a list
// of alternating filled and empty runs — the structure of the paper's
// Figure 4, where the first and last slots of each run record the run
// length (negated for empty runs) so that adjacent runs are reachable
// in O(1) and corresponding slots in other bins can be found quickly.
// We keep the runs in a slice ordered by start time and locate the run
// containing a slot by binary search; Encode renders the literal
// ±size array of Figure 4.
//
// This implementation is retired from the hot path (slotBitmap replaced
// it) but is kept, behind the slotOccupancy interface, as the
// differential oracle: FuzzSlotOccupancy and the estimator differential
// suite pin the bitmap kernel byte-identical against it.
type slotList struct {
	runs []run // invariant: sorted, contiguous from 0, alternating merged
	size int   // total slots represented
}

type run struct {
	start  int
	length int
	filled bool
}

func newSlotList(capacity int) *slotList {
	s := &slotList{}
	s.reset(capacity)
	return s
}

// reset re-initializes the list to a single empty run, reusing the
// backing run storage (the free list behind the estimator's scratch
// pool: run blocks released by a previous estimation are recycled here
// instead of being reallocated).
func (s *slotList) reset(capacity int) {
	if capacity <= 0 {
		capacity = 64
	}
	if cap(s.runs) == 0 {
		s.runs = make([]run, 1, 8)
	}
	s.runs = s.runs[:1]
	s.runs[0] = run{0, capacity, false}
	s.size = capacity
}

// ensure grows the list so that slot i exists.
func (s *slotList) ensure(i int) {
	if i < s.size {
		return
	}
	grow := i + 1 - s.size
	if grow < s.size {
		grow = s.size // double
	}
	last := &s.runs[len(s.runs)-1]
	if !last.filled {
		last.length += grow
	} else {
		s.runs = append(s.runs, run{s.size, grow, false})
	}
	s.size += grow
}

// runIndexAt returns the index of the run containing slot i.
func (s *slotList) runIndexAt(i int) int {
	lo, hi := 0, len(s.runs)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if s.runs[mid].start <= i {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// free reports whether slots [from, from+n) are all empty.
func (s *slotList) free(from, n int) bool {
	if n <= 0 {
		return true
	}
	s.ensure(from + n - 1)
	idx := s.runIndexAt(from)
	end := from + n
	for pos := from; pos < end; {
		r := s.runs[idx]
		if r.filled {
			return false
		}
		pos = r.start + r.length
		idx++
	}
	return true
}

// nextFit returns the lowest t ≥ from such that slots [t, t+n) are all
// empty. It always succeeds because the list grows on demand.
func (s *slotList) nextFit(from, n int) int {
	if n <= 0 {
		return from
	}
	if from < 0 {
		from = 0
	}
	s.ensure(from + n)
	idx := s.runIndexAt(from)
	for {
		if idx >= len(s.runs) {
			// Growing may extend the trailing empty run rather than
			// append a new one; continue scanning from the last run.
			s.ensure(s.size + n)
			idx = len(s.runs) - 1
		}
		r := s.runs[idx]
		if r.filled {
			idx++
			continue
		}
		start := r.start
		if start < from {
			start = from
		}
		avail := r.start + r.length - start
		if avail >= n {
			return start
		}
		idx++
	}
}

// occupy marks slots [from, from+n) as filled. The slots must be empty.
func (s *slotList) occupy(from, n int) {
	if n <= 0 {
		return
	}
	s.ensure(from + n)
	if !s.free(from, n) {
		panic(fmt.Sprintf("tetris: occupy(%d, %d) over filled slots", from, n))
	}
	idx := s.runIndexAt(from)
	r := s.runs[idx]
	// r is empty and fully contains [from, from+n) because free()
	// succeeded and empty runs are maximal. Build the ≤3 replacement
	// runs on the stack and splice them in place — the run slice only
	// ever grows by the amortized append below, never via a temporary.
	var repl [3]run
	nr := 0
	if from > r.start {
		repl[nr] = run{r.start, from - r.start, false}
		nr++
	}
	repl[nr] = run{from, n, true}
	nr++
	if rest := r.start + r.length - (from + n); rest > 0 {
		repl[nr] = run{from + n, rest, false}
		nr++
	}
	switch nr - 1 {
	case 1:
		s.runs = append(s.runs, run{})
	case 2:
		s.runs = append(s.runs, run{}, run{})
	}
	if extra := nr - 1; extra > 0 {
		copy(s.runs[idx+nr:], s.runs[idx+1:len(s.runs)-extra])
	}
	copy(s.runs[idx:idx+nr], repl[:nr])
	s.mergeAround(idx)
}

// mergeAround coalesces equal-state neighbors near index i.
func (s *slotList) mergeAround(i int) {
	lo := i - 1
	if lo < 0 {
		lo = 0
	}
	hi := i + 3
	if hi > len(s.runs) {
		hi = len(s.runs)
	}
	for j := lo; j+1 < hi && j+1 < len(s.runs); {
		if s.runs[j].filled == s.runs[j+1].filled {
			s.runs[j].length += s.runs[j+1].length
			s.runs = append(s.runs[:j+1], s.runs[j+2:]...)
			hi--
			continue
		}
		j++
	}
}

// filledCount returns the number of filled slots in [0, upto).
func (s *slotList) filledCount(upto int) int {
	total := 0
	for _, r := range s.runs {
		if r.start >= upto {
			break
		}
		if !r.filled {
			continue
		}
		end := r.start + r.length
		if end > upto {
			end = upto
		}
		total += end - r.start
	}
	return total
}

// extent returns the first and last filled slots, or (-1, -1) if none.
func (s *slotList) extent() (first, last int) {
	first, last = -1, -1
	for _, r := range s.runs {
		if !r.filled {
			continue
		}
		if first == -1 {
			first = r.start
		}
		last = r.start + r.length - 1
	}
	return first, last
}

// Encode renders the first `upto` slots in the paper's Figure 4 array
// encoding: the first and last slot of each run hold the run length,
// negative for empty runs; interior slots hold 0.
func (s *slotList) Encode(upto int) []int {
	out := make([]int, upto)
	for _, r := range s.runs {
		if r.start >= upto {
			break
		}
		length := r.length
		if r.start+length > upto {
			length = upto - r.start
		}
		v := length
		if !r.filled {
			v = -length
		}
		out[r.start] = v
		out[r.start+length-1] = v
	}
	return out
}

// String renders occupancy as '#' (filled) and '.' (empty), for tests
// and debug dumps.
func (s *slotList) render(upto int) string {
	var b strings.Builder
	for _, r := range s.runs {
		if r.start >= upto {
			break
		}
		n := r.length
		if r.start+n > upto {
			n = upto - r.start
		}
		ch := "."
		if r.filled {
			ch = "#"
		}
		b.WriteString(strings.Repeat(ch, n))
	}
	return b.String()
}

// checkInvariants validates the run list structure (used by property
// tests): contiguous coverage from 0, positive lengths, alternating
// fill states.
func (s *slotList) checkInvariants() error {
	pos := 0
	for i, r := range s.runs {
		if r.start != pos {
			return fmt.Errorf("run %d starts at %d, want %d", i, r.start, pos)
		}
		if r.length <= 0 {
			return fmt.Errorf("run %d has length %d", i, r.length)
		}
		if i > 0 && s.runs[i-1].filled == r.filled {
			return fmt.Errorf("runs %d and %d not alternating", i-1, i)
		}
		pos += r.length
	}
	if pos != s.size {
		return fmt.Errorf("coverage %d != size %d", pos, s.size)
	}
	return nil
}
