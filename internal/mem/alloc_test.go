package mem

import "testing"

// TestZeroAllocUnprotectedWrite: with no protection bits set in the
// covered range, a backed Write must copy bytes in and return without
// constructing a Fault or allocating.
func TestZeroAllocUnprotectedWrite(t *testing.T) {
	s := NewAddressSpace(Config{})
	r, err := s.Mmap(1024 * 1024)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64*1024)
	// Warm up so every page in the target range is materialized.
	if err := s.Write(r.Start(), buf); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := s.Write(r.Start(), buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("unprotected backed Write allocates %v/op, want 0", allocs)
	}
}

// TestZeroAllocPhantomWriteRange pins the same property for the phantom
// sweep path used by the full-scale volume experiments.
func TestZeroAllocPhantomWriteRange(t *testing.T) {
	s := NewAddressSpace(Config{Phantom: true})
	r, err := s.Mmap(16 * 1024 * 1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteRange(r.Start(), r.Size()); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := s.WriteRange(r.Start(), r.Size()); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("unprotected phantom WriteRange allocates %v/op, want 0", allocs)
	}
}

// TestUntouchedArenaCostsNoContents: a backed arena makes its contents
// on its first run or LoadPage, never at map time, so mapping and
// unmapping a 1 MB arena nothing touches (an MPI bounce arena) allocates
// exactly what the same pair does on a phantom space.
func TestUntouchedArenaCostsNoContents(t *testing.T) {
	allocs := func(phantom bool) float64 {
		s := NewAddressSpace(Config{Phantom: phantom})
		return testing.AllocsPerRun(100, func() {
			r, err := s.Mmap(1 << 20)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Munmap(r); err != nil {
				t.Fatal(err)
			}
		})
	}
	if backed, phantom := allocs(false), allocs(true); backed != phantom {
		t.Fatalf("Mmap+Munmap of an untouched 1 MB arena: %v allocs backed, %v phantom", backed, phantom)
	}
}

// TestFastPathStatsMatchSlowPath: the same Write issued against
// protected pages (a fault each, then the store) and unprotected ones
// (the store alone) must leave the same bytes in memory and the same
// writeBytes tally.
func TestFastPathStatsMatchSlowPath(t *testing.T) {
	mk := func(protect bool) (*AddressSpace, *Region) {
		s := NewAddressSpace(Config{})
		r, err := s.Mmap(256 * 1024)
		if err != nil {
			t.Fatal(err)
		}
		if protect {
			NewDirtyLog(s).Open()
		}
		return s, r
	}
	buf := make([]byte, 40*1024)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	fastS, fastR := mk(false)
	slowS, slowR := mk(true)
	const off = 1234 // deliberately page-misaligned
	if err := fastS.Write(fastR.Start()+off, buf); err != nil {
		t.Fatal(err)
	}
	if err := slowS.Write(slowR.Start()+off, buf); err != nil {
		t.Fatal(err)
	}
	if fastS.WrittenBytes() != slowS.WrittenBytes() {
		t.Fatalf("writeBytes diverge: fast %d, slow %d",
			fastS.WrittenBytes(), slowS.WrittenBytes())
	}
	got := make([]byte, len(buf))
	want := make([]byte, len(buf))
	if err := fastS.Read(fastR.Start()+off, got); err != nil {
		t.Fatal(err)
	}
	if err := slowS.Read(slowR.Start()+off, want); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("content diverges at offset %d: fast %#x, slow %#x", i, got[i], want[i])
		}
	}
}
