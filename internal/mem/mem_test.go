package mem

import (
	"bytes"
	"errors"
	"math/bits"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

func newBacked(t *testing.T) *AddressSpace {
	t.Helper()
	return NewAddressSpace(Config{PageSize: 4096})
}

func TestKindStrings(t *testing.T) {
	cases := map[Kind]string{Data: "data", BSS: "bss", Heap: "heap", Mmap: "mmap", Stack: "stack", Bounce: "bounce"}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
	if !Data.Checkpointable() || Stack.Checkpointable() || Bounce.Checkpointable() {
		t.Error("Checkpointable: data must be, stack and bounce must not be")
	}
	if Data != 0 || BSS != 1 || Heap != 2 || Mmap != 3 || Stack != 4 {
		t.Error("segment region tables store Kind on the wire: its numbers must not move")
	}
}

func TestBadPageSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two page size did not panic")
		}
	}()
	NewAddressSpace(Config{PageSize: 3000})
}

func TestDefaultPageSize(t *testing.T) {
	s := NewAddressSpace(Config{})
	if s.PageSize() != DefaultPageSize {
		t.Fatalf("PageSize = %d, want %d", s.PageSize(), DefaultPageSize)
	}
}

func TestMapDataAndBSS(t *testing.T) {
	s := newBacked(t)
	d := s.MapData(10000) // rounds to 3 pages
	if d.Size() != 12288 || d.Kind() != Data {
		t.Fatalf("data region: size=%d kind=%v", d.Size(), d.Kind())
	}
	// BSS has no mapper of its own any more; a restore recreates one
	// with MapAt, directly above the data region.
	b, err := s.MapAt(d.End(), 4096, BSS)
	if err != nil || b.Kind() != BSS {
		t.Fatalf("bss above data: %v %v", b, err)
	}
	if got := s.Footprint(); got != 12288+4096 {
		t.Fatalf("Footprint = %d", got)
	}
}

func TestDoubleMapDataPanics(t *testing.T) {
	s := newBacked(t)
	s.MapData(4096)
	defer func() {
		if recover() == nil {
			t.Fatal("double MapData did not panic")
		}
	}()
	s.MapData(4096)
}

func TestStackNotInFootprint(t *testing.T) {
	s := newBacked(t)
	if s.Footprint() != 0 {
		t.Fatalf("empty space footprint = %d, want 0 (stack excluded)", s.Footprint())
	}
	if st := s.Find(StackTop - 1); st == nil || st.Kind() != Stack {
		t.Fatal("stack region missing")
	}
}

// A bounce arena lands exactly where Mmap would have put an arena — in a
// freed slot first-fit, else at the bump pointer — and counts toward
// the footprint, but no dirty log protects it and Munmap refuses it.
func TestMapBounceLandsWhereMmapWould(t *testing.T) {
	script := func(last func(*AddressSpace, uint64) (*Region, error)) (*AddressSpace, []*Region) {
		s := newBacked(t)
		a, _ := s.Mmap(3 * 4096)
		s.Mmap(4096)
		s.Munmap(a)
		fit, _ := last(s, 2*4096) // first-fit into a's slot
		bump, _ := last(s, 1<<20) // past the end
		tail, _ := last(s, 4096)  // what is left of a's slot
		return s, []*Region{fit, bump, tail}
	}
	_, arenas := script((*AddressSpace).Mmap)
	s, bounces := script((*AddressSpace).MapBounce)
	for i, b := range bounces {
		if b.Start() != arenas[i].Start() || b.Size() != arenas[i].Size() || b.Kind() != Bounce {
			t.Fatalf("bounce %d: %v at %#x (%d bytes), want bounce at Mmap's %#x (%d bytes)",
				i, b.Kind(), b.Start(), b.Size(), arenas[i].Start(), arenas[i].Size())
		}
	}
	if got, want := s.Footprint(), uint64(4096+2*4096+1<<20+4096); got != want {
		t.Fatalf("footprint %d, want %d (bounce arenas included)", got, want)
	}
	l := NewDirtyLog(s)
	if got := l.Open(); got != 1 {
		t.Fatalf("Open protected %d pages, want 1 (the plain arena only)", got)
	}
	if err := s.WriteRange(bounces[1].Start(), bounces[1].Size()); err != nil || s.Faults() != 0 || l.Watches(bounces[1]) {
		t.Fatalf("write to a bounce arena: err %v, %d faults, watched %v", err, s.Faults(), l.Watches(bounces[1]))
	}
	if err := s.Munmap(bounces[0]); !errors.Is(err, ErrBadRange) {
		t.Fatalf("Munmap of a bounce arena: %v, want ErrBadRange", err)
	}
}

func TestMmapMunmapReuse(t *testing.T) {
	s := newBacked(t)
	a, err := s.Mmap(8192)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Mmap(8192)
	if err != nil {
		t.Fatal(err)
	}
	if a.End() > b.Start() && b.End() > a.Start() {
		t.Fatal("mmap regions overlap")
	}
	aStart := a.Start()
	if err := s.Munmap(a); err != nil {
		t.Fatal(err)
	}
	if !a.dead {
		t.Fatal("region not marked dead")
	}
	c, err := s.Mmap(4096)
	if err != nil {
		t.Fatal(err)
	}
	if c.Start() != aStart {
		t.Fatalf("freed slot not reused: got %#x, want %#x", c.Start(), aStart)
	}
	if c == a {
		t.Fatal("recycled slot reuses its predecessor's Region")
	}
	if err := s.Munmap(a); err == nil {
		t.Fatal("double munmap succeeded")
	}
	if err := s.Munmap(nil); err == nil {
		t.Fatal("munmap(nil) succeeded")
	}
}

func TestMmapZeroFails(t *testing.T) {
	s := newBacked(t)
	if _, err := s.Mmap(0); err == nil {
		t.Fatal("mmap(0) succeeded")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	s := newBacked(t)
	r, _ := s.Mmap(3 * 4096)
	// Write crossing two page boundaries.
	data := make([]byte, 6000)
	for i := range data {
		data[i] = byte(i * 7)
	}
	addr := r.Start() + 2000
	if err := s.Write(addr, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 6000)
	if err := s.Read(addr, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read-back mismatch")
	}
	// Untouched pages read as zero.
	zero := make([]byte, 100)
	if err := s.Read(r.Start()+9000, zero); err != nil {
		t.Fatal(err)
	}
	for _, b := range zero {
		if b != 0 {
			t.Fatal("untouched page not zero-filled")
		}
	}
}

func TestWriteUnmappedAndCrossRegion(t *testing.T) {
	s := newBacked(t)
	r, _ := s.Mmap(4096)
	if err := s.Write(0xdead0000, []byte{1}); !errors.Is(err, ErrUnmapped) {
		t.Fatalf("unmapped write: %v", err)
	}
	if err := s.Write(r.End()-2, []byte{1, 2, 3, 4}); !errors.Is(err, ErrBadRange) {
		t.Fatalf("cross-boundary write: %v", err)
	}
	if err := s.Read(0xdead0000, []byte{0}); !errors.Is(err, ErrUnmapped) {
		t.Fatalf("unmapped read: %v", err)
	}
	if err := s.Write(r.Start(), nil); err != nil {
		t.Fatalf("empty write: %v", err)
	}
}

// appendPages appends the pages w*64+b of every set bit b of m to dst,
// in ascending order: an OnFault word delivery, expanded.
func appendPages(dst []uint64, w, m uint64) []uint64 {
	for ; m != 0; m &= m - 1 {
		dst = append(dst, w*64+uint64(bits.TrailingZeros64(m)))
	}
	return dst
}

// countFaults opens a dirty log on s whose OnFault appends each page it
// records to *pages, its words expanded in ascending order.
func countFaults(s *AddressSpace, pages *[]uint64) *DirtyLog {
	l := NewDirtyLog(s)
	l.OnFault = func(_ *Region, w, m uint64) { *pages = appendPages(*pages, w, m) }
	l.Open()
	return l
}

func TestProtectionFaultDelivery(t *testing.T) {
	s := newBacked(t)
	r, _ := s.Mmap(4 * 4096)
	var faults []uint64
	countFaults(s, &faults)
	if got := r.ProtectedPages(); got != 4 {
		t.Fatalf("ProtectedPages = %d, want 4", got)
	}
	// First write faults once per page.
	if err := s.Write(r.Start()+100, make([]byte, 5000)); err != nil {
		t.Fatal(err)
	}
	if len(faults) != 2 || faults[0] != 0 || faults[1] != 1 {
		t.Fatalf("faulted pages %v, want [0 1] (write spans 2 pages)", faults)
	}
	// Rewrite of the same pages: no more faults.
	if err := s.Write(r.Start()+100, make([]byte, 5000)); err != nil {
		t.Fatal(err)
	}
	if len(faults) != 2 {
		t.Fatalf("rewrite faulted again: %d", len(faults))
	}
	if s.Faults() != 2 {
		t.Fatalf("Faults() = %d", s.Faults())
	}
}

// An open log that does not record the region leaves its page
// protected: the write is an unhandled fault.
func TestSegvWhenHandlerLeavesProtected(t *testing.T) {
	s := newBacked(t)
	r, _ := s.Mmap(4096)
	r.MarkRecomputable()
	l := NewDirtyLog(s)
	l.Open()
	r.ProtectAll()
	if err := s.Write(r.Start()+5, []byte{1}); !errors.Is(err, ErrSegv) {
		t.Fatalf("want ErrSegv, got %v", err)
	}
	if s.Faults() != 1 || l.Faults() != 0 || !r.Protected(r.Start()) {
		t.Fatalf("space %d faults, log %d, page protected %v; want 1, 0, true", s.Faults(), l.Faults(), r.Protected(r.Start()))
	}
}

func TestSegvWithoutHandler(t *testing.T) {
	s := newBacked(t)
	r, _ := s.Mmap(4096)
	r.ProtectAll()
	if err := s.Write(r.Start(), []byte{1}); !errors.Is(err, ErrSegv) {
		t.Fatalf("want ErrSegv, got %v", err)
	}
	if err := s.WriteRange(r.Start(), 10); !errors.Is(err, ErrSegv) {
		t.Fatalf("WriteRange: want ErrSegv, got %v", err)
	}
}

func TestReadNeverFaults(t *testing.T) {
	s := newBacked(t)
	r, _ := s.Mmap(4096)
	l := NewDirtyLog(s)
	l.OnFault = func(*Region, uint64, uint64) { t.Fatal("read delivered a fault") }
	l.Open()
	if err := s.Read(r.Start(), make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if s.Faults() != 0 || !r.Protected(r.Start()) {
		t.Fatal("read faulted or unprotected the page")
	}
}

func TestWriteRangeFaultPerPage(t *testing.T) {
	s := NewAddressSpace(Config{PageSize: 4096, Phantom: true})
	r, _ := s.Mmap(1000 * 4096)
	var pages []uint64
	countFaults(s, &pages)
	if err := s.WriteRange(r.Start(), 1000*4096); err != nil {
		t.Fatal(err)
	}
	if len(pages) != 1000 || !slices.IsSorted(pages) {
		t.Fatalf("faults = %d, want 1000 in page order", len(pages))
	}
	// Second sweep over unprotected pages: zero faults, fast path.
	if err := s.WriteRange(r.Start(), 1000*4096); err != nil {
		t.Fatal(err)
	}
	if len(pages) != 1000 || s.Faults() != 1000 {
		t.Fatalf("fast path faulted: %d", len(pages))
	}
	if s.WrittenBytes() != 2*1000*4096 {
		t.Fatalf("WrittenBytes = %d", s.WrittenBytes())
	}
}

func TestWriteRangePartialPages(t *testing.T) {
	s := NewAddressSpace(Config{PageSize: 4096, Phantom: true})
	r, _ := s.Mmap(16 * 4096)
	var pages []uint64
	countFaults(s, &pages)
	// Touch bytes [4000, 4100): 4000..4100 crosses into page 1 at
	// offset 4096, so pages 0 and 1 only.
	if err := s.WriteRange(r.Start()+4000, 100); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(pages, []uint64{0, 1}) {
		t.Fatalf("pages touched: %v", pages)
	}
}

func TestWriteRangeBackedFill(t *testing.T) {
	s := newBacked(t)
	r, _ := s.Mmap(2 * 4096)
	if err := s.WriteRange(r.Start(), 8192); err != nil {
		t.Fatal(err)
	}
	a := make([]byte, 8192)
	if err := s.Read(r.Start(), a); err != nil {
		t.Fatal(err)
	}
	first := a[0]
	for _, b := range a {
		if b != first {
			t.Fatal("WriteRange fill not uniform")
		}
	}
	if err := s.WriteRange(r.Start(), 4096); err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	s.Read(r.Start(), b)
	if b[0] == first {
		t.Fatal("second WriteRange used the same fill value")
	}
}

func TestProtectAllData(t *testing.T) {
	s := newBacked(t)
	s.MapData(4096)
	s.Mmap(8192)
	m, _ := s.Mmap(4096)
	// A dirty log with no exclusions protects exactly the data memory.
	log := NewDirtyLog(s)
	n := log.Open()
	if n != 1+2+1 {
		t.Fatalf("DirtyLog.Open protected %d pages, want 4", n)
	}
	if !m.Protected(m.Start()) {
		t.Fatal("mmap page not protected")
	}
	if s.Find(StackTop-1).ProtectedPages() != 0 {
		t.Fatal("stack was protected — the paper's library cannot protect the stack")
	}
	log.Close()
	if m.ProtectedPages() != 0 {
		t.Fatal("DirtyLog.Close left pages protected")
	}
}

// An open log's OnMap hears every region map and unmap.
func TestDirtyLogOnMapEvents(t *testing.T) {
	s := newBacked(t)
	type ev struct {
		kind   Kind
		mapped bool
	}
	var evs []ev
	l := NewDirtyLog(s)
	l.OnMap = func(r *Region, mapped bool, _ uint64) { evs = append(evs, ev{r.Kind(), mapped}) }
	l.Open()
	s.MapData(4096)
	r, _ := s.Mmap(4096)
	a, _ := s.Mmap(3 * 4096)
	s.Munmap(r)
	s.Munmap(a)
	want := []ev{{Data, true}, {Mmap, true}, {Mmap, true}, {Mmap, false}, {Mmap, false}}
	if len(evs) != len(want) {
		t.Fatalf("hook events: %+v", evs)
	}
	for i := range want {
		if evs[i] != want[i] {
			t.Fatalf("hook event %d = %+v, want %+v", i, evs[i], want[i])
		}
	}
}

func TestFindCache(t *testing.T) {
	s := newBacked(t)
	a, _ := s.Mmap(4096)
	b, _ := s.Mmap(4096)
	if s.Find(a.Start()) != a || s.Find(b.Start()) != b || s.Find(a.Start()) != a {
		t.Fatal("Find returned wrong region")
	}
	s.Munmap(a)
	if s.Find(a.Start()) == a {
		t.Fatal("Find returned dead region via cache")
	}
}

func TestPhantomReadZeroFills(t *testing.T) {
	s := NewAddressSpace(Config{PageSize: 4096, Phantom: true})
	r, _ := s.Mmap(4096)
	if err := s.Write(r.Start(), []byte{9, 9}); err != nil {
		t.Fatal(err)
	}
	buf := []byte{1, 1}
	if err := s.Read(r.Start(), buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0 || buf[1] != 0 {
		t.Fatal("phantom read did not zero-fill")
	}
}

// Property: after protecting all and writing a random set of ranges with a
// dirty log open, the set of unprotected pages equals
// exactly the union of pages covered by the ranges.
func TestPropertyDirtyPagesMatchWrites(t *testing.T) {
	const pageSize = 4096
	f := func(seed uint64, nWrites uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 1))
		s := NewAddressSpace(Config{PageSize: pageSize, Phantom: true})
		const pages = 256
		r, _ := s.Mmap(pages * pageSize)
		NewDirtyLog(s).Open()
		want := make(map[uint64]bool)
		for i := 0; i < int(nWrites%40)+1; i++ {
			start := uint64(rng.IntN(pages * pageSize))
			n := uint64(rng.IntN(8*pageSize) + 1)
			if start+n > pages*pageSize {
				n = pages*pageSize - start
			}
			if n == 0 {
				continue
			}
			if err := s.WriteRange(r.Start()+start, n); err != nil {
				return false
			}
			for p := start / pageSize; p <= (start+n-1)/pageSize; p++ {
				want[p] = true
			}
		}
		for p := uint64(0); p < pages; p++ {
			unprot := !r.Protected(r.PageAddr(p))
			if unprot != want[p] {
				return false
			}
		}
		return uint64(len(want)) == pages-r.ProtectedPages()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: random mmap/munmap sequences keep regions disjoint,
// sorted, and footprint equal to the sum of live checkpointable sizes.
func TestPropertyRegionInvariants(t *testing.T) {
	f := func(seed uint64, nOps uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 2))
		s := NewAddressSpace(Config{PageSize: 4096, Phantom: true})
		var arenas []*Region
		var want uint64
		for i := 0; i < int(nOps); i++ {
			switch rng.IntN(2) {
			case 0:
				sz := uint64(rng.IntN(64)+1) * 4096
				r, err := s.Mmap(sz)
				if err != nil {
					return false
				}
				arenas = append(arenas, r)
				want += sz
			case 1:
				if len(arenas) > 0 {
					i := rng.IntN(len(arenas))
					want -= arenas[i].Size()
					if s.Munmap(arenas[i]) != nil {
						return false
					}
					arenas = append(arenas[:i], arenas[i+1:]...)
				}
			}
		}
		if s.Footprint() != want {
			return false
		}
		regs := s.Regions()
		for i := 1; i < len(regs); i++ {
			if regs[i-1].End() > regs[i].Start() {
				return false // overlap or out of order
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: backed Write/Read round-trips arbitrary data at arbitrary
// offsets.
func TestPropertyWriteReadRoundTrip(t *testing.T) {
	f := func(data []byte, off uint16) bool {
		s := NewAddressSpace(Config{PageSize: 4096})
		r, _ := s.Mmap(64 * 4096)
		addr := r.Start() + uint64(off)
		if uint64(off)+uint64(len(data)) > r.Size() {
			return true // out of scope
		}
		if err := s.Write(addr, data); err != nil {
			return false
		}
		got := make([]byte, len(data))
		if err := s.Read(addr, got); err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkWriteRangeColdSweep sweeps a region an open DirtyLog
// re-protected whole: every page faults, delivered to the log a bitmap
// word at a time — what a tracker pays per timeslice.
func BenchmarkWriteRangeColdSweep(b *testing.B) {
	s := NewAddressSpace(Config{Phantom: true})
	r, _ := s.Mmap(64 * 1024 * 1024)
	NewDirtyLog(s).Open()
	// The first sweep creates and sizes the log's set for r.
	if err := s.WriteRange(r.Start(), r.Size()); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(64 * 1024 * 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.ProtectAll()
		if err := s.WriteRange(r.Start(), r.Size()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteRangeHotSweep sweeps a region nothing ever protected —
// it is marked recomputable, so the open DirtyLog does not watch it: it times the untracked skip (no
// protection walk at all) — the 63 ranks of an IWS run without a
// tracker — not a re-sweep of faulted pages, which is
// BenchmarkWriteRangeFaultedSweep.
func BenchmarkWriteRangeHotSweep(b *testing.B) {
	s := NewAddressSpace(Config{Phantom: true})
	r, _ := s.Mmap(64 * 1024 * 1024)
	r.MarkRecomputable()
	l := NewDirtyLog(s)
	l.Open()
	b.SetBytes(64 * 1024 * 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.WriteRange(r.Start(), r.Size()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteRangeFaultedSweep re-sweeps a region under an open
// DirtyLog whose pages all faulted on the first sweep: armed, every bit
// clear, so each sweep walks the bitmap and finds nothing — rank 0's
// dwell window between two tracker resets.
func BenchmarkWriteRangeFaultedSweep(b *testing.B) {
	s := NewAddressSpace(Config{Phantom: true})
	r, _ := s.Mmap(64 * 1024 * 1024)
	NewDirtyLog(s).Open()
	if err := s.WriteRange(r.Start(), r.Size()); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(64 * 1024 * 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.WriteRange(r.Start(), r.Size()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteRangeSparseSweep re-sweeps a region under an open
// DirtyLog whose only protected page is its last: each sweep's walk
// crosses the 63 clear bitmap words before it — one summary word — to
// deliver one fault. It times the hop a sparsely re-protected arena pays.
func BenchmarkWriteRangeSparseSweep(b *testing.B) {
	s := NewAddressSpace(Config{Phantom: true})
	r, _ := s.Mmap(64 * 1024 * 1024)
	NewDirtyLog(s).Open()
	if err := s.WriteRange(r.Start(), r.Size()); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(64 * 1024 * 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.SetProtected(r.End()-1, true)
		if err := s.WriteRange(r.Start(), r.Size()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBackedWrite(b *testing.B) {
	s := NewAddressSpace(Config{})
	r, _ := s.Mmap(1024 * 1024)
	buf := make([]byte, 64*1024)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Write(r.Start(), buf); err != nil {
			b.Fatal(err)
		}
	}
}
