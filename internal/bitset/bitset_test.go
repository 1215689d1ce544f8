package bitset

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// has and remove are the one-element cases of Word and AndNotWord.
func has(s *Set, i uint64) bool { return s.Word(i/64)&(1<<(i%64)) != 0 }
func remove(s *Set, i uint64)   { s.AndNotWord(i/64, 1<<(i%64)) }

func TestBasics(t *testing.T) {
	var s Set
	if s.Len() != 0 || has(&s, 0) || has(&s, 1000) {
		t.Fatal("zero value not empty")
	}
	s.Add(3)
	s.Add(64)
	s.Add(64) // duplicate
	s.Add(129)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if !has(&s, 3) || !has(&s, 64) || !has(&s, 129) || has(&s, 4) {
		t.Fatal("membership wrong")
	}
	remove(&s, 64)
	remove(&s, 9999) // absent, no-op
	if s.Len() != 2 || has(&s, 64) {
		t.Fatal("Remove failed")
	}
}

func TestForEachOrder(t *testing.T) {
	var s Set
	in := []uint64{200, 3, 64, 5}
	for _, i := range in {
		s.Add(i)
	}
	var got []uint64
	s.ForEach(func(i uint64) bool { got = append(got, i); return true })
	want := []uint64{3, 5, 64, 200}
	if len(got) != len(want) {
		t.Fatalf("ForEach = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach = %v, want %v", got, want)
		}
	}
}

func TestForEachEarlyStop(t *testing.T) {
	var s Set
	for i := uint64(0); i < 100; i++ {
		s.Add(i)
	}
	n := 0
	s.ForEach(func(uint64) bool { n++; return n < 5 })
	if n != 5 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestClearClone(t *testing.T) {
	var s Set
	s.Add(7)
	c := s.Clone()
	s.Clear()
	if s.Len() != 0 {
		t.Fatal("Clear failed")
	}
	if c.Len() != 1 || !has(c, 7) {
		t.Fatal("Clone not independent")
	}
	c.Add(9)
	if has(&s, 9) {
		t.Fatal("Clone shares storage")
	}
}

// Property: Set agrees with a reference map under random operations.
func TestPropertyModelEquivalence(t *testing.T) {
	f := func(seed uint64, nOps uint16) bool {
		rng := rand.New(rand.NewPCG(seed, 31))
		var s Set
		ref := map[uint64]bool{}
		for i := 0; i < int(nOps%500); i++ {
			x := uint64(rng.IntN(1024))
			switch rng.IntN(3) {
			case 0:
				s.Add(x)
				ref[x] = true
			case 1:
				remove(&s, x)
				delete(ref, x)
			case 2:
				if has(&s, x) != ref[x] {
					return false
				}
			}
		}
		if s.Len() != uint64(len(ref)) {
			return false
		}
		n := 0
		ok := true
		s.ForEach(func(i uint64) bool {
			if !ref[i] {
				ok = false
			}
			n++
			return true
		})
		return ok && n == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAddDense(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var s Set
		for j := uint64(0); j < 4096; j++ {
			s.Add(j)
		}
	}
}
