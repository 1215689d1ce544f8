package mem

import (
	"bytes"
	"testing"
)

// The zero-page equivalence is the load-bearing property: a restore
// materialises pages a fresh run never touched, so a never-written (nil)
// page and an explicitly-written all-zero page must digest identically
// or every restored run would trivially diverge from its reference.
func TestDigestZeroPageEquivalence(t *testing.T) {
	fresh := NewAddressSpace(Config{PageSize: 512})
	if _, err := fresh.Mmap(4 * 512); err != nil {
		t.Fatal(err)
	}

	touched := NewAddressSpace(Config{PageSize: 512})
	r, err := touched.Mmap(4 * 512)
	if err != nil {
		t.Fatal(err)
	}
	// Materialise two pages with explicit zeros.
	if err := touched.Write(r.Start(), make([]byte, 2*512)); err != nil {
		t.Fatal(err)
	}

	if fresh.Digest(nil) != touched.Digest(nil) {
		t.Fatal("nil page and materialised all-zero page digest differently")
	}
}

func TestDigestSensitivity(t *testing.T) {
	build := func(mutate bool) uint64 {
		s := NewAddressSpace(Config{PageSize: 512})
		r, err := s.Mmap(4 * 512)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Write(r.Start(), bytes.Repeat([]byte{7}, 2*512)); err != nil {
			t.Fatal(err)
		}
		if mutate {
			if err := s.Write(r.Start()+100, []byte{8}); err != nil {
				t.Fatal(err)
			}
		}
		return s.Digest(nil)
	}
	if build(false) != build(false) {
		t.Fatal("identical construction, different digests")
	}
	if build(false) == build(true) {
		t.Fatal("single-byte mutation left the digest unchanged")
	}
}

// A region excluded by the skip predicate must not vote: two spaces that
// differ only inside the skipped region digest identically.
func TestDigestSkipPredicate(t *testing.T) {
	build := func(fill byte) uint64 {
		s := NewAddressSpace(Config{PageSize: 512})
		keep, err := s.Mmap(2 * 512)
		if err != nil {
			t.Fatal(err)
		}
		noisy, err := s.Mmap(2 * 512)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Write(keep.Start(), bytes.Repeat([]byte{1}, 512)); err != nil {
			t.Fatal(err)
		}
		if err := s.Write(noisy.Start(), bytes.Repeat([]byte{fill}, 512)); err != nil {
			t.Fatal(err)
		}
		return s.Digest(func(r *Region) bool { return r == noisy })
	}
	if build(0x10) != build(0x20) {
		t.Fatal("skipped region influenced the digest")
	}
}

// Layout still matters: a skipped region's *absence* is not the same as
// skipping it — and distinct layouts digest distinctly.
func TestDigestLayout(t *testing.T) {
	one := NewAddressSpace(Config{PageSize: 512})
	if _, err := one.Mmap(2 * 512); err != nil {
		t.Fatal(err)
	}
	two := NewAddressSpace(Config{PageSize: 512})
	if _, err := two.Mmap(4 * 512); err != nil {
		t.Fatal(err)
	}
	if one.Digest(nil) == two.Digest(nil) {
		t.Fatal("different layouts, same digest")
	}
}

// Phantom spaces digest layout only, deterministically.
func TestDigestPhantom(t *testing.T) {
	build := func() uint64 {
		s := NewAddressSpace(Config{PageSize: 512, Phantom: true})
		r, err := s.Mmap(4 * 512)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.WriteRange(r.Start(), 512); err != nil {
			t.Fatal(err)
		}
		return s.Digest(nil)
	}
	if build() != build() {
		t.Fatal("phantom digest not deterministic")
	}
}

// BenchmarkDigest digests a backed 4 MB arena whose every page holds
// data, so every byte is read by the zero-page test and then hashed.
// MB/s counts the arena's bytes once.
func BenchmarkDigest(b *testing.B) {
	s := NewAddressSpace(Config{})
	r, err := s.Mmap(4 << 20)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, r.Size())
	for i := range buf {
		buf[i] = byte(i*7 + 1)
	}
	if err := s.Write(r.Start(), buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(r.Size()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		digestSink = s.Digest(nil)
	}
}

var digestSink uint64
