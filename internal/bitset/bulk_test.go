package bitset

import (
	"math/rand/v2"
	"testing"
)

// randomSet fills a set with n random elements below limit and returns
// the element slice for model comparison.
func randomSet(rng *rand.Rand, n int, limit uint64) *Set {
	s := &Set{}
	for i := 0; i < n; i++ {
		s.Add(rng.Uint64N(limit))
	}
	return s
}

// TestPropertyBulkOpsMatchPerBit checks each word-level bulk operation
// against the obvious per-bit loop over the same inputs.
func TestPropertyBulkOpsMatchPerBit(t *testing.T) {
	const limit = 1000
	for trial := 0; trial < 100; trial++ {
		rng := rand.New(rand.NewPCG(7, uint64(trial)))
		a := randomSet(rng, 200, limit)
		b := randomSet(rng, 200, limit)

		union := a.Clone()
		union.UnionWith(b)
		// Words past either set's end read as zero and delete nothing.
		diff := a.Clone()
		for w := uint64(0); w < limit/64+2; w++ {
			diff.AndNotWord(w, b.Word(w))
		}

		for i := uint64(0); i < limit+128; i++ {
			if want := has(a, i) || has(b, i); has(union, i) != want {
				t.Fatalf("trial %d: UnionWith wrong at %d", trial, i)
			}
			if want := has(a, i) && !has(b, i); has(diff, i) != want {
				t.Fatalf("trial %d: AndNotWord wrong at %d", trial, i)
			}
		}
		if union.Count() != union.Len() {
			t.Fatalf("Count != Len")
		}
	}
}

// TestPropertyNextSetMatchesForEach checks the iterator visits exactly
// the ForEach order.
func TestPropertyNextSetMatchesForEach(t *testing.T) {
	for trial := 0; trial < 100; trial++ {
		rng := rand.New(rand.NewPCG(11, uint64(trial)))
		s := randomSet(rng, int(rng.Uint64N(300)), 2000)

		var want []uint64
		s.ForEach(func(i uint64) bool { want = append(want, i); return true })

		var got []uint64
		for i, ok := s.NextSet(0); ok; i, ok = s.NextSet(i + 1) {
			got = append(got, i)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: NextSet visited %d, ForEach %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: order diverges at %d: %d vs %d", trial, i, got[i], want[i])
			}
		}
	}
}

// TestNextSetRemoveDuringIteration pins NextSet's contract: deleting
// the current element mid-loop must not derail the scan.
func TestNextSetRemoveDuringIteration(t *testing.T) {
	s := &Set{}
	for _, i := range []uint64{0, 1, 63, 64, 65, 127, 128, 500} {
		s.Add(i)
	}
	var got []uint64
	for i, ok := s.NextSet(0); ok; i, ok = s.NextSet(i + 1) {
		got = append(got, i)
		remove(s, i)
	}
	want := []uint64{0, 1, 63, 64, 65, 127, 128, 500}
	if len(got) != len(want) {
		t.Fatalf("visited %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("visited %v, want %v", got, want)
		}
	}
	if s.Len() != 0 {
		t.Fatal("set should be empty after remove-during-iteration sweep")
	}
}

// TestZeroAllocBulkOps pins the allocation-free property of the word
// loops on pre-sized sets.
func TestZeroAllocBulkOps(t *testing.T) {
	a, b := &Set{}, &Set{}
	for i := uint64(0); i < 4096; i += 3 {
		a.Add(i)
	}
	for i := uint64(0); i < 4096; i += 5 {
		b.Add(i)
	}
	checks := []struct {
		name string
		fn   func()
	}{
		{"UnionWith", func() { a.UnionWith(b) }},
		{"Count", func() { _ = a.Count() }},
		{"NextSetSweep", func() {
			for i, ok := a.NextSet(0); ok; i, ok = a.NextSet(i + 1) {
			}
		}},
	}
	for _, c := range checks {
		if allocs := testing.AllocsPerRun(100, c.fn); allocs != 0 {
			t.Errorf("%s allocates %v/op, want 0", c.name, allocs)
		}
	}
}

func BenchmarkNextSetSweep(b *testing.B) {
	s := &Set{}
	for i := uint64(0); i < 1<<18; i += 7 {
		s.Add(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		var count int
		for i, ok := s.NextSet(0); ok; i, ok = s.NextSet(i + 1) {
			count++
		}
		if count == 0 {
			b.Fatal("empty sweep")
		}
	}
}

func BenchmarkForEachSweep(b *testing.B) {
	s := &Set{}
	for i := uint64(0); i < 1<<18; i += 7 {
		s.Add(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		var count int
		s.ForEach(func(uint64) bool { count++; return true })
		if count == 0 {
			b.Fatal("empty sweep")
		}
	}
}

func BenchmarkUnionWith(b *testing.B) {
	x, y := &Set{}, &Set{}
	for i := uint64(0); i < 1<<18; i += 3 {
		x.Add(i)
	}
	for i := uint64(0); i < 1<<18; i += 5 {
		y.Add(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		x.UnionWith(y)
	}
}
