// Package bitset provides a growable bitmap used for page-granular dirty
// tracking by the tracker and the checkpointer.
package bitset

import "math/bits"

// Set is a growable set of uint64 indexes. The zero value is an empty set.
type Set struct {
	words []uint64
}

// New returns an empty set with room for the elements below n: adding
// them never reallocates.
func New(n uint64) *Set { return &Set{words: make([]uint64, 0, (n+63)/64)} }

// Add inserts i, growing the set as needed.
func (s *Set) Add(i uint64) { s.OrWord(i/64, 1<<(i%64)) }

// OrWord inserts w*64+b for every set bit b of m — 64 Adds in one —
// growing the set as needed.
func (s *Set) OrWord(w, m uint64) {
	for uint64(len(s.words)) <= w {
		s.words = append(s.words, 0)
	}
	s.words[w] |= m
}

// Word returns bitmap word w: bit b is set when w*64+b is in the set.
// A word past the end of the set is zero.
func (s *Set) Word(w uint64) uint64 {
	if w < uint64(len(s.words)) {
		return s.words[w]
	}
	return 0
}

// AndNotWord deletes w*64+b for every set bit b of m — 64 Removes in
// one. Deleting absent elements is a no-op.
func (s *Set) AndNotWord(w, m uint64) {
	if w < uint64(len(s.words)) {
		s.words[w] &^= m
	}
}

// Len returns the number of elements.
func (s *Set) Len() uint64 {
	var n uint64
	for _, w := range s.words {
		n += uint64(bits.OnesCount64(w))
	}
	return n
}

// Count is Len: the number of elements, one OnesCount64 per word.
func (s *Set) Count() uint64 { return s.Len() }

// UnionWith adds every element of o to s, word at a time, growing s in
// one step when o is longer.
func (s *Set) UnionWith(o *Set) {
	if n := len(o.words) - len(s.words); n > 0 {
		s.words = append(s.words, make([]uint64, n)...)
	}
	for i, w := range o.words {
		s.words[i] |= w
	}
}

// NextSet returns the smallest element ≥ from, scanning whole zero words
// in one step. ok is false when no such element exists. It is the
// allocation-free replacement for ForEach callbacks on hot paths:
//
//	for i, ok := s.NextSet(0); ok; i, ok = s.NextSet(i + 1) { ... }
//
// Deleting the current element (or any element ≤ i) during the loop is
// safe: the scan never revisits positions below the cursor.
func (s *Set) NextSet(from uint64) (uint64, bool) {
	w := from / 64
	if w >= uint64(len(s.words)) {
		return 0, false
	}
	if v := s.words[w] >> (from % 64); v != 0 {
		return from + uint64(bits.TrailingZeros64(v)), true
	}
	for w++; w < uint64(len(s.words)); w++ {
		if v := s.words[w]; v != 0 {
			return w*64 + uint64(bits.TrailingZeros64(v)), true
		}
	}
	return 0, false
}

// Clear empties the set, retaining capacity.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Clone returns an independent copy.
func (s *Set) Clone() *Set {
	return &Set{words: append([]uint64(nil), s.words...)}
}

// ForEach calls fn for each element in ascending order until fn returns
// false. Hot paths iterate with NextSet; this is the plain form its
// property test is checked against.
//
//lint:ignore deadexport reference iteration the NextSet property test compares against
func (s *Set) ForEach(fn func(uint64) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := uint64(bits.TrailingZeros64(w))
			if !fn(uint64(wi)*64 + b) {
				return
			}
			w &^= 1 << b
		}
	}
}
