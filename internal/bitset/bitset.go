// Package bitset provides a growable bitmap used for page-granular dirty
// tracking by the tracker and the checkpointer.
package bitset

import "math/bits"

// Set is a growable set of uint64 indexes. The zero value is an empty set.
type Set struct {
	words []uint64
}

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

// Has reports whether i is in the set.
func (s *Set) Has(i uint64) bool {
	w := i / 64
	return w < uint64(len(s.words)) && s.words[w]&(1<<(i%64)) != 0
}

// Remove deletes i. Removing an absent element is a no-op.
func (s *Set) Remove(i uint64) {
	w := i / 64
	if w < uint64(len(s.words)) {
		s.words[w] &^= 1 << (i % 64)
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

// UnionWith adds every element of o to s, word at a time.
func (s *Set) UnionWith(o *Set) {
	for uint64(len(s.words)) < uint64(len(o.words)) {
		s.words = append(s.words, 0)
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
// Removing the current element (or any element ≤ i) during the loop is
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
