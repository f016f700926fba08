// Package tetris implements the cost model for straight-line code on
// superscalar architectures from Wang (PLDI 1994, §2.1): operations are
// two-dimensional cost objects dropped into a (functional-unit ×
// time-slot) bin at the lowest position where every per-unit segment
// fits simultaneously, honoring the data-dependence "filter". The
// block's cost is the distance between the highest and lowest occupied
// time slots.
package tetris

import (
	"fmt"
	"math/bits"
	"strings"
)

// slotOccupancy is the contract of one functional-unit pipe's
// time-slot occupancy. Two implementations exist: slotBitmap (the
// production kernel, word-wide uint64 occupancy) and, in the tests,
// slotList (the paper's Figure 4 run-length encoding, retired from the
// hot path but kept as the differential oracle — FuzzSlotOccupancy and
// the seeded table tests pin the two byte-identical over random op
// sequences).
type slotOccupancy interface {
	reset(capacity int)
	free(from, n int) bool
	nextFit(from, n int) int
	occupy(from, n int)
	filledCount(upto int) int
	extent() (first, last int)
	Encode(upto int) []int
	render(upto int) string
	checkInvariants() error
}

var _ slotOccupancy = (*slotBitmap)(nil)

// slotBitmap stores the occupancy of one functional-unit pipe as a
// dense bitmap: bit i of words[i/64] is set iff time slot i is filled.
// free is a mask-AND over at most a handful of words, occupy is an OR,
// and nextFit is a math/bits complement scan — no run walking, no
// binary search. size tracks the represented slot count with the same
// doubling policy as the run-length list so that Encode (which renders
// the literal Figure 4 ±size array, including the trailing empty run)
// stays byte-identical between the two implementations.
type slotBitmap struct {
	words []uint64 // invariant: every bit at index ≥ any occupied slot that was never set is 0
	size  int      // total slots represented (grows on demand)
}

func newSlotBitmap(capacity int) *slotBitmap {
	s := &slotBitmap{}
	s.reset(capacity)
	return s
}

// reset re-initializes the bitmap to all-empty, keeping the backing
// word storage at its high-water capacity so pooled scratch stops
// reallocating across heterogeneous blocks.
func (s *slotBitmap) reset(capacity int) {
	if capacity <= 0 {
		capacity = 64
	}
	nw := (capacity + 63) >> 6
	if cap(s.words) < nw {
		s.words = make([]uint64, nw)
	} else {
		// Clear the full high-water extent: occupy only ever sets bits
		// below len(s.words)*64, and grow reslices within this zeroed
		// region without touching memory.
		w := s.words[:cap(s.words)]
		for i := range w {
			w[i] = 0
		}
		s.words = w[:nw]
	}
	s.size = capacity
}

// grow extends the represented slot count so that slot i exists, with
// the exact doubling arithmetic of slotList.ensure (Encode parity
// depends on the two growing in lockstep). Storage is only extended
// when a word is actually needed.
func (s *slotBitmap) grow(i int) {
	if i < s.size {
		return
	}
	g := i + 1 - s.size
	if g < s.size {
		g = s.size // double
	}
	s.size += g
}

// ensureWords makes the word slice cover slot i (bits beyond the
// current length are zero by the reset invariant, so reslicing within
// capacity is free).
func (s *slotBitmap) ensureWords(i int) {
	nw := (i >> 6) + 1
	if nw <= len(s.words) {
		return
	}
	if nw <= cap(s.words) {
		s.words = s.words[:nw]
		return
	}
	grown := make([]uint64, nw, nw+nw/2)
	copy(grown, s.words)
	s.words = grown
}

// rangeMask returns the mask of bits [lo, hi) within one word, 0 ≤ lo <
// hi ≤ 64.
func rangeMask(lo, hi uint) uint64 {
	m := ^uint64(0) << lo
	if hi < 64 {
		m &^= ^uint64(0) << hi
	}
	return m
}

// free reports whether slots [from, from+n) are all empty: an AND of at
// most ⌈n/64⌉+1 words against range masks.
func (s *slotBitmap) free(from, n int) bool {
	if n <= 0 {
		return true
	}
	s.grow(from + n - 1)
	return s.freeQuick(from, n)
}

// freeQuick is free without the represented-size growth: the answer
// depends only on the stored words (slots past them are empty), and the
// size bookkeeping exists for Encode/render parity with the run-length
// form, which the placement query doesn't touch. tryFit probes with
// this; the interface method free keeps the growth so the differential
// suite can pin the two implementations size-identical.
func (s *slotBitmap) freeQuick(from, n int) bool {
	end := from + n // exclusive
	w := from >> 6
	if w >= len(s.words) {
		return true
	}
	lastW := (end - 1) >> 6
	if lastW >= len(s.words) {
		lastW = len(s.words) - 1
		end = (lastW + 1) << 6
	}
	if w == lastW {
		return s.words[w]&rangeMask(uint(from)&63, uint(end-1)&63+1) == 0
	}
	if s.words[w]&rangeMask(uint(from)&63, 64) != 0 {
		return false
	}
	for w++; w < lastW; w++ {
		if s.words[w] != 0 {
			return false
		}
	}
	return s.words[lastW]&rangeMask(0, uint(end-1)&63+1) == 0
}

// nextFit returns the lowest t ≥ from such that slots [t, t+n) are all
// empty: a TrailingZeros scan over the occupancy words that jumps whole
// filled stretches instead of probing slot by slot. It always succeeds
// because the bitmap grows on demand.
func (s *slotBitmap) nextFit(from, n int) int {
	if n <= 0 {
		return from
	}
	if from < 0 {
		from = 0
	}
	s.grow(from + n)
	run := 0       // consecutive free slots ending just before the scan point
	start := from  // where the current free run began
	w := from >> 6 // current word
	bit := uint(from) & 63
	for {
		if w >= len(s.words) {
			break // all free from here on: the run extends forever
		}
		word := s.words[w] >> bit // occupancy from slot w*64+bit upward
		avail := 64 - int(bit)
		if word == 0 {
			run += avail
			if run >= n {
				break
			}
			w++
			bit = 0
			continue
		}
		tz := bits.TrailingZeros64(word)
		if run += tz; run >= n {
			break
		}
		// Hit a filled stretch; skip it wholesale and restart the run.
		ones := bits.TrailingZeros64(^(word >> uint(tz)))
		pos := w<<6 + int(bit) + tz + ones
		run = 0
		start = pos
		w = pos >> 6
		bit = uint(pos) & 63
	}
	// Mirror slotList.nextFit's trailing growth: finding a fit that
	// extends past the represented size enlarges the list.
	for start+n > s.size {
		s.grow(s.size + n)
	}
	return start
}

// nextFitQuick is nextFit without the represented-size growth, for the
// same reason as freeQuick: the fit position depends only on the stored
// words, and the probe path doesn't need Figure 4 size bookkeeping.
func (s *slotBitmap) nextFitQuick(from, n int) int {
	if n <= 0 {
		return from
	}
	if from < 0 {
		from = 0
	}
	if n == 1 { // dominant case: first zero bit at or after from
		w := from >> 6
		if w >= len(s.words) {
			return from
		}
		if inv := ^s.words[w] &^ ((uint64(1) << (uint(from) & 63)) - 1); inv != 0 {
			return w<<6 + bits.TrailingZeros64(inv)
		}
		for w++; w < len(s.words); w++ {
			if inv := ^s.words[w]; inv != 0 {
				return w<<6 + bits.TrailingZeros64(inv)
			}
		}
		return len(s.words) << 6
	}
	run := 0
	start := from
	w := from >> 6
	bit := uint(from) & 63
	for w < len(s.words) {
		word := s.words[w] >> bit
		avail := 64 - int(bit)
		if word == 0 {
			run += avail
			if run >= n {
				return start
			}
			w++
			bit = 0
			continue
		}
		tz := bits.TrailingZeros64(word)
		if run += tz; run >= n {
			return start
		}
		ones := bits.TrailingZeros64(^(word >> uint(tz)))
		pos := w<<6 + int(bit) + tz + ones
		run = 0
		start = pos
		w = pos >> 6
		bit = uint(pos) & 63
	}
	return start
}

// occupy marks slots [from, from+n) as filled. The slots must be empty.
func (s *slotBitmap) occupy(from, n int) {
	if n <= 0 {
		return
	}
	s.grow(from + n)
	if !s.free(from, n) {
		panic(fmt.Sprintf("tetris: occupy(%d, %d) over filled slots", from, n))
	}
	s.setRange(from, n)
}

// occupyFit is occupy for a range the caller has already proven free
// (placeOne commits only slots tryFit just checked), skipping the
// guard's extra word scan.
func (s *slotBitmap) occupyFit(from, n int) {
	if n <= 0 {
		return
	}
	s.grow(from + n)
	s.setRange(from, n)
}

// setRange ORs bits [from, from+n) into the words.
func (s *slotBitmap) setRange(from, n int) {
	s.ensureWords(from + n - 1)
	end := from + n
	w := from >> 6
	lastW := (end - 1) >> 6
	if w == lastW {
		s.words[w] |= rangeMask(uint(from)&63, uint(end-1)&63+1)
		return
	}
	s.words[w] |= rangeMask(uint(from)&63, 64)
	for w++; w < lastW; w++ {
		s.words[w] = ^uint64(0)
	}
	s.words[lastW] |= rangeMask(0, uint(end-1)&63+1)
}

// filledCount returns the number of filled slots in [0, upto): an
// OnesCount per word plus one masked partial.
func (s *slotBitmap) filledCount(upto int) int {
	if upto <= 0 {
		return 0
	}
	total := 0
	full := upto >> 6
	if full > len(s.words) {
		full = len(s.words)
	}
	for _, word := range s.words[:full] {
		total += bits.OnesCount64(word)
	}
	if rem := uint(upto) & 63; rem != 0 && upto>>6 < len(s.words) {
		total += bits.OnesCount64(s.words[upto>>6] & rangeMask(0, rem))
	}
	return total
}

// extent returns the first and last filled slots, or (-1, -1) if none.
func (s *slotBitmap) extent() (first, last int) {
	first, last = -1, -1
	for w, word := range s.words {
		if word != 0 {
			first = w<<6 + bits.TrailingZeros64(word)
			break
		}
	}
	if first == -1 {
		return -1, -1
	}
	for w := len(s.words) - 1; w >= 0; w-- {
		if word := s.words[w]; word != 0 {
			last = w<<6 + 63 - bits.LeadingZeros64(word)
			break
		}
	}
	return first, last
}

// bitAt reports slot i's occupancy (slots beyond storage are empty).
func (s *slotBitmap) bitAt(i int) bool {
	w := i >> 6
	return w < len(s.words) && s.words[w]&(1<<(uint(i)&63)) != 0
}

// runEnd returns the end (exclusive, capped at size) of the maximal
// same-state run starting at slot i.
func (s *slotBitmap) runEnd(i int) int {
	filled := s.bitAt(i)
	w := i >> 6
	bit := uint(i) & 63
	for {
		if w >= len(s.words) {
			if filled {
				return w << 6 // filled bits never extend past storage
			}
			return s.size
		}
		word := s.words[w] >> bit
		if filled {
			// Scan for the first zero; mask off the zero-fill the shift
			// introduced above the word's real bits so it is not taken
			// for a free slot.
			word = ^word &^ (^uint64(0) << uint(64-int(bit)))
		}
		if word == 0 {
			w++
			bit = 0
			continue
		}
		end := w<<6 + int(bit) + bits.TrailingZeros64(word)
		if !filled && end > s.size {
			end = s.size
		}
		return end
	}
}

// Encode renders the first `upto` slots in the paper's Figure 4 array
// encoding — the first and last slot of each run hold the run length,
// negative for empty runs; interior slots hold 0 — reconstructed from
// the bitmap for debugging and for differential comparison against the
// retired run-length implementation.
func (s *slotBitmap) Encode(upto int) []int {
	out := make([]int, upto)
	for start := 0; start < upto && start < s.size; {
		end := s.runEnd(start)
		length := end - start
		v := length
		if !s.bitAt(start) {
			v = -length
		}
		if start+length > upto {
			length = upto - start
			v = length
			if !s.bitAt(start) {
				v = -length
			}
		}
		out[start] = v
		out[start+length-1] = v
		start = end
	}
	return out
}

// render draws occupancy as '#' (filled) and '.' (empty), for tests and
// debug dumps.
func (s *slotBitmap) render(upto int) string {
	var b strings.Builder
	n := upto
	if n > s.size {
		n = s.size
	}
	for i := 0; i < n; i++ {
		if s.bitAt(i) {
			b.WriteByte('#')
		} else {
			b.WriteByte('.')
		}
	}
	return b.String()
}

// checkInvariants validates the bitmap structure (used by property
// tests): no filled slot at or beyond the represented size, and no
// stray bits in the zeroed high-water region.
func (s *slotBitmap) checkInvariants() error {
	if s.size <= 0 {
		return fmt.Errorf("size %d", s.size)
	}
	for w := s.size >> 6; w < len(s.words); w++ {
		word := s.words[w]
		if w == s.size>>6 {
			word &^= rangeMask(0, uint(s.size)&63) // bits below size are fine
		}
		if word != 0 {
			return fmt.Errorf("filled slot at or beyond size %d (word %d = %#x)", s.size, w, s.words[w])
		}
	}
	for w := len(s.words); w < cap(s.words); w++ {
		if s.words[:cap(s.words)][w] != 0 {
			return fmt.Errorf("stray bits beyond words length (word %d)", w)
		}
	}
	return nil
}
