// Package mem simulates the virtual-memory subsystem the paper's
// instrumentation library relies on: a paged address space with per-page
// write protection, synchronous write-fault delivery, and the UNIX data
// memory areas (initialized data, BSS and mmap'ed arenas).
//
// The real system write-protects pages with mprotect and receives SIGSEGV
// on the first write; Go's runtime owns those mechanisms, so this package
// reproduces the semantics in a library: every write goes through
// AddressSpace.Write, AddressSpace.WriteRange or a PageRun begun with
// AddressSpace.StoreRun, which check the page's protection bit and
// synchronously deliver the fault to the open dirty logs (DirtyLog, the
// MMU's only client) before the write completes — exactly the ordering
// a process catching SIGSEGV sees.
//
// Two backing modes are supported. In backed mode each page holds real
// bytes, so a checkpointer can save and restore genuine contents. In
// phantom mode pages carry no contents, only protection metadata, which
// lets full-scale experiments (64 ranks × 1 GB footprints) run in a few
// megabytes of host memory: the paper's feasibility metrics depend only on
// which pages are written when, never on the bytes themselves.
package mem

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
)

// DefaultPageSize is the 16 KB page size of the Itanium II systems used in
// the paper's evaluation.
const DefaultPageSize = 16 * 1024

// Kind classifies a mapped region, mirroring the UNIX process areas the
// paper enumerates in §4.1.
type Kind uint8

const (
	// Data is compile-time initialized data.
	Data Kind = iota
	// BSS is compile-time allocated, zero-filled data. No workload
	// maps one (the models fold it into Data); the kind keeps its
	// number because segment region tables store Kind on the wire.
	BSS
	// Heap is a real process's brk-grown dynamic area. No workload maps
	// one (dynamic memory is Mmap arenas, as the paper's library follows
	// it); the kind keeps its number because segment region tables store
	// Kind on the wire.
	Heap
	// Mmap is a dynamically mapped arena (mmap/munmap).
	Mmap
	// Stack is the process stack. It cannot be write-protected: the
	// SIGSEGV catcher itself needs a writable stack (§4.2).
	Stack
	// Bounce is an MPI landing zone (MapBounce): the NIC deposits
	// messages there, so the paper's library keeps it writable and out
	// of every checkpoint (§4.2). It is never on the wire.
	Bounce
)

// String returns the conventional name of the region kind.
func (k Kind) String() string {
	switch k {
	case Data:
		return "data"
	case BSS:
		return "bss"
	case Heap:
		return "heap"
	case Mmap:
		return "mmap"
	case Stack:
		return "stack"
	case Bounce:
		return "bounce"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Checkpointable reports whether regions of this kind belong to the data
// memory the paper checkpoints: every kind above except the stack and a
// bounce arena.
func (k Kind) Checkpointable() bool { return k < Stack }

// Errors returned by address-space operations.
var (
	// ErrSegv is returned when a write hits a protected page of a region
	// no open dirty log records, so nothing unprotects it — the
	// simulation analogue of an unhandled SIGSEGV.
	ErrSegv = errors.New("mem: segmentation violation")
	// ErrUnmapped is returned for accesses outside any live region.
	ErrUnmapped = errors.New("mem: address not mapped")
	// ErrBadRange is returned for ranges that cross region boundaries
	// or otherwise cannot be satisfied.
	ErrBadRange = errors.New("mem: bad address range")
)

// Config parameterises an AddressSpace.
type Config struct {
	// PageSize is the page size in bytes; it must be a power of two.
	// Zero selects DefaultPageSize.
	PageSize uint64
	// Phantom selects metadata-only pages (no contents).
	Phantom bool
}

// Layout constants. Addresses are synthetic; only page arithmetic matters.
const (
	dataBase uint64 = 0x0000_4000_0000_0000
	mmapBase uint64 = 0x0000_2000_0000_0000
)

// The stack's fixed span, [StackTop-StackSize, StackTop): every address
// space maps its stack there from creation, so no other region can be
// mapped over it.
const (
	StackTop  uint64 = 0x0000_7fff_ffff_0000
	StackSize uint64 = 64 * 1024 // paper: max observed stack < 42 KB
)

// Region is a contiguous page-aligned mapping.
type Region struct {
	start uint64
	size  uint64 // bytes, multiple of page size
	kind  Kind
	// recomputable marks data no dirty log watches (MarkRecomputable):
	// its contents are rebuilt after a restore, not captured.
	recomputable bool

	space *AddressSpace
	// wp is the write-protect bitmap, one bit per page (see summary,
	// written): nil until something protects the region or, backed,
	// writes it (bitmaps), so a region nothing protects or writes costs
	// no bitmap.
	wp []uint64
	// silent marks pages a DMA write (WriteDirect) landed on while they
	// were write-protected: modified memory no dirty log ever saw —
	// the NIC-vs-mprotect conflict of §4.2 made observable. Allocated
	// lazily on the first silent write; a bit clears when a CPU fault is
	// finally delivered for the page (the tracker sees it after all) or
	// when the page is explicitly reconciled (ReplaySilent).
	silent []uint64
	// slab holds a backed region's contents, page after page. It is made
	// zeroed, whole, on the region's first run or LoadPage, never at map
	// time: a region nothing touches costs no host memory.
	slab []byte
	dead bool
	// armed records that some page may be protected: ProtectAll and
	// SetProtected(…, true) set it, and only a wholesale clear of wp
	// and its summary (unprotectAll, DirtyLog.Close's) unsets it.
	// Unset ⇒ wp and the summary are all zero or not made, so a write
	// to memory nobody protects skips the protection walk.
	armed bool
}

// Start returns the base address of the region.
func (r *Region) Start() uint64 { return r.start }

// Size returns the region size in bytes.
func (r *Region) Size() uint64 { return r.size }

// End returns one past the last mapped byte.
func (r *Region) End() uint64 { return r.start + r.size }

// Kind returns the region's classification.
func (r *Region) Kind() Kind { return r.kind }

// MarkRecomputable takes r's contents out of the data every dirty log
// protects and logs — the runtime half of a protection spec's
// Recomputable class. r stays checkpointable: segment region tables keep
// it, so a restore recreates it zero-filled. Mark before any log opens on
// the space.
func (r *Region) MarkRecomputable() { r.recomputable = true }

// watched reports whether the open dirty logs protect and log r:
// checkpointable data memory (neither the stack nor a bounce arena,
// §4.2) that was not marked recomputable.
func (r *Region) watched() bool { return r.kind.Checkpointable() && !r.recomputable }

// Pages returns the number of pages in the region.
func (r *Region) Pages() uint64 { return r.size >> r.space.pageShift }

// PageIndex converts an address inside the region to a page index.
// The page size is a power of two, so this is a shift, not a hardware
// divide — it sits on the per-fault and per-write hot paths.
func (r *Region) PageIndex(addr uint64) uint64 {
	return (addr - r.start) >> r.space.pageShift
}

// PageAddr converts a page index to the page's base address.
func (r *Region) PageAddr(idx uint64) uint64 {
	return r.start + idx<<r.space.pageShift
}

// Protected reports whether the page holding addr is write-protected.
func (r *Region) Protected(addr uint64) bool {
	if !r.armed {
		return false
	}
	idx := r.PageIndex(addr)
	return r.wp[idx/64]&(1<<(idx%64)) != 0
}

// SetProtected sets or clears write protection on the page holding addr.
func (r *Region) SetProtected(addr uint64, protected bool) {
	r.space.settle()
	idx := r.PageIndex(addr)
	if protected {
		r.protect(idx/64, 1<<(idx%64))
	} else if r.wp != nil {
		r.unprotect(idx/64, 1<<(idx%64))
	}
}

// ProtectAll sets write protection on every page of the region.
func (r *Region) ProtectAll() {
	r.space.settle()
	r.protectAll()
}

// protectAll is ProtectAll inside an entry point that has settled the
// space: a log's Open and Reset protect region by region.
func (r *Region) protectAll() {
	r.bitmaps()
	n := uint64(len(r.wp))
	all := r.wp[:n+summaryWords(n)]
	for i := range all {
		all[i] = ^uint64(0)
	}
	// Only the last word of each bitmap has bits past its end: the
	// pages past the region's last, the words past wp's last.
	if rem := r.Pages() % 64; rem != 0 {
		r.wp[n-1] &= 1<<rem - 1
	}
	if sum := r.summary(); len(sum) > 0 && n%64 != 0 {
		sum[len(sum)-1] &= 1<<(n%64) - 1
	}
	r.armed = true
}

// protect write-protects the pages m of bitmap word w: the one setter
// of wp bits, which sets the word's summary bit with them.
func (r *Region) protect(w, m uint64) {
	r.bitmaps()
	if r.wp[w] |= m; len(r.wp) > 1 {
		r.wp[len(r.wp):cap(r.wp)][w/64] |= 1 << (w % 64) // summary()
	}
	r.armed = true
}

// unprotect clears write protection on the pages m of bitmap word w:
// the one clearer of wp bits, which clears the word's summary bit when
// the word goes to zero.
func (r *Region) unprotect(w, m uint64) {
	v := r.wp[w] &^ m
	if r.wp[w] = v; v == 0 && len(r.wp) > 1 {
		r.wp[len(r.wp):cap(r.wp)][w/64] &^= 1 << (w % 64) // summary()
	}
}

// unprotectAll clears write protection on every page of the region:
// the bitmap and its summary, one contiguous range, and armed.
func (r *Region) unprotectAll() {
	n := uint64(len(r.wp))
	clear(r.wp[:n+summaryWords(n)]) // nothing when not made
	r.armed = false
}

// protected is the one walk of the protection bitmap: the first bitmap
// word w at or after page from's that holds protected pages of [from,
// last], and m, the mask of those pages in it — m is 0 when there are
// none. A region nothing protected is skipped whole. Past from's own
// word the walk hops through the summary to the next word holding
// protected pages: one summary load and a count of trailing zeros per
// 64 bitmap words (4,096 pages). A bitmap of one word has no summary,
// and its walk never leaves that word.
func (r *Region) protected(from, last uint64) (w, m uint64) {
	if !r.armed || from > last {
		return 0, 0
	}
	w, lw := from/64, last/64
	m = r.wp[w] &^ (1<<(from%64) - 1)
	if m == 0 && w < lw {
		sum := r.wp[len(r.wp):cap(r.wp)] // summary()
		w++
		s, sm := w/64, sum[w/64]&^(1<<(w%64)-1)
		for sm == 0 && s < lw/64 {
			s++
			sm = sum[s]
		}
		// sm == 0 leaves w = 64·s+64, past lw.
		if w = s*64 + uint64(bits.TrailingZeros64(sm)); w > lw {
			return 0, 0
		}
		m = r.wp[w]
	}
	if w == lw {
		m &= ^uint64(0) >> (63 - last%64)
	}
	return w, m
}

// words is the length of r's protection bitmap: a bit per page.
func (r *Region) words() uint64 { return (r.Pages() + 63) / 64 }

// bitmaps makes r's bitmaps, all zero, unless they are made: one
// allocation, wp then its summary then (backed only) written, each
// found from len(wp), so the Region struct, of which phantom runs map
// thousands, carries no second slice header.
func (r *Region) bitmaps() {
	if r.wp != nil {
		return
	}
	n := r.words()
	if r.space.cfg.Phantom {
		r.wp = make([]uint64, n, n+summaryWords(n)) // and summary
	} else {
		r.wp = make([]uint64, n, 2*n+summaryWords(n)) // and summary, written
	}
}

// summaryWords is the length of the summary of an n-word protection
// bitmap: a bit per word, none for a single word.
func summaryWords(n uint64) uint64 {
	if n <= 1 {
		return 0
	}
	return (n + 63) / 64
}

// summary is the protection bitmap's summary: bit i of word s is set
// iff wp[64·s+i] != 0, kept exact by protect, unprotect, ProtectAll and
// unprotectAll, the only writers of wp. It follows wp in wp's own
// allocation (see written). The per-word paths (protect, unprotect, the
// walk) index r.wp[len(r.wp):cap(r.wp)] instead, where the summary
// exists (len(r.wp) > 1): slicing it to its length costs them a
// measurable share of a fault.
func (r *Region) summary() []uint64 {
	n := uint64(len(r.wp))
	return r.wp[n : n+summaryWords(n)]
}

// ProtectedPages returns the number of currently protected pages.
//
//lint:ignore deadexport protection-state probe the tracker tests assert on
func (r *Region) ProtectedPages() uint64 {
	r.space.settle()
	var n uint64
	for _, w := range r.wp {
		n += uint64(bits.OnesCount64(w))
	}
	return n
}

// SilentPages returns the number of silently dirty pages — pages whose
// contents changed underneath the protection machinery and are therefore
// missing from any fault-derived dirty set.
func (r *Region) SilentPages() uint64 {
	r.space.settle()
	return r.silentPages()
}

// silentPages is SilentPages inside an entry point that has settled the
// space (SilentDirtyBytes, region by region).
func (r *Region) silentPages() uint64 {
	var n uint64
	for _, w := range r.silent {
		n += uint64(bits.OnesCount64(w))
	}
	return n
}

// ClearSilent forgets all silent-dirty marks. A full checkpoint calls
// this: it captures current page contents regardless of dirty sets, so
// the DMA'd data is in the chain after all.
func (r *Region) ClearSilent() {
	r.space.settle()
	for i := range r.silent {
		r.silent[i] = 0
	}
}

// PeekPage returns the contents of the page at the given index without
// making it: nil means the page was never written (all zero). It panics
// in phantom mode.
func (r *Region) PeekPage(idx uint64) []byte {
	if r.space.cfg.Phantom {
		panic("mem: PeekPage on phantom address space")
	}
	if r.wp == nil || r.written()[idx/64]&(1<<(idx%64)) == 0 {
		return nil
	}
	ps := r.space.cfg.PageSize
	return r.slab[idx*ps : (idx+1)*ps : (idx+1)*ps]
}

// LoadPage overwrites the page at the given index with data (len must be
// one page), bypassing protection and fault delivery — the restore path,
// which operates below any tracker. It panics in phantom mode.
func (r *Region) LoadPage(idx uint64, data []byte) {
	if r.space.cfg.Phantom {
		panic("mem: LoadPage on phantom address space")
	}
	if uint64(len(data)) != r.space.cfg.PageSize {
		panic(fmt.Sprintf("mem: LoadPage with %d bytes, want one page (%d)", len(data), r.space.cfg.PageSize))
	}
	copy(r.store(r.PageAddr(idx), uint64(len(data))), data)
}

// written is a backed region's written-page bitmap: the pages a store, a
// raw store (DMA, fill) or LoadPage made, even all-zero ones; PeekPage
// returns nil for the rest. It is the last of r's bitmaps (bitmaps).
func (r *Region) written() []uint64 {
	n := uint64(len(r.wp))
	return r.wp[n+summaryWords(n) : cap(r.wp)]
}

// bytes returns the slab's n bytes at addr, a range inside r, making the
// slab on first use.
func (r *Region) bytes(addr, n uint64) []byte {
	if r.slab == nil {
		r.slab = make([]byte, r.size)
	}
	off := addr - r.start
	return r.slab[off : off+n : off+n]
}

// store is bytes for a write: it marks the pages of the range written,
// making the bitmaps on the region's first write.
func (r *Region) store(addr, n uint64) []byte {
	r.bitmaps()
	b, written := r.bytes(addr, n), r.written()
	first, last := r.PageIndex(addr), r.PageIndex(addr+n-1)
	for w := first / 64; w <= last/64; w++ {
		lo, hi := max(first, w*64)%64, min(last, w*64+63)%64
		written[w] |= ^uint64(0) << lo & (^uint64(0) >> (63 - hi))
	}
	return b
}

// AddressSpace is a simulated process address space.
type AddressSpace struct {
	cfg     Config
	regions []*Region // live regions, sorted by start
	// logs are the open dirty logs, oldest first: the only consumers of
	// write faults and map events.
	logs []*DirtyLog

	pageShift uint // log2(PageSize)

	lastHit *Region // single-entry lookup cache

	faults     uint64 // total write faults delivered
	writeBytes uint64 // total bytes written (logical, not page-rounded)
	writeSeq   byte   // rolling fill value for backed WriteRange/RewriteRange

	// settleFn is the owner's hook (SetSettle), nil when it has none.
	settleFn func()
}

// NewAddressSpace creates an empty address space with a stack region
// already mapped (the stack exists from process start and is never
// write-protected).
func NewAddressSpace(cfg Config) *AddressSpace {
	if cfg.PageSize == 0 {
		cfg.PageSize = DefaultPageSize
	}
	if cfg.PageSize&(cfg.PageSize-1) != 0 {
		panic(fmt.Sprintf("mem: page size %d is not a power of two", cfg.PageSize))
	}
	s := &AddressSpace{cfg: cfg, pageShift: uint(bits.TrailingZeros64(cfg.PageSize))}
	s.insert(StackTop-StackSize, StackSize, Stack)
	return s
}

// SetSettle installs fn as the space's settle hook: the space calls it
// before every entry point that reads dirty state (a DirtyLog's Pages,
// Count and Faults; the space's Faults, WrittenBytes, Digest and silent
// set; a region's ProtectedPages and SilentPages), changes protection (a
// log's Open, Close and Reset; ProtectAll, SetProtected, ClearSilent,
// ReplaySilent; a DMA write, whose silence depends on protection) or
// changes the mapping (MapData, Mmap, MapBounce, Munmap, MapAt). It is
// for an owner that defers writes nobody can see yet — a workload's held
// sweep ticks — and must make them before anything can tell: fn brings
// the space up to the running instant. CPU writes do not call it: which
// pages an interval's writes fault does not depend on their order. fn
// may be called again from inside itself (a write it makes reaches an
// observer that reads); it must then have nothing left to do. A nil fn
// removes the hook.
func (s *AddressSpace) SetSettle(fn func()) { s.settleFn = fn }

// settle calls the settle hook, if any (SetSettle).
func (s *AddressSpace) settle() {
	if s.settleFn != nil {
		s.settleFn()
	}
}

// PageSize returns the page size in bytes.
func (s *AddressSpace) PageSize() uint64 { return s.cfg.PageSize }

// Phantom reports whether pages are metadata-only.
func (s *AddressSpace) Phantom() bool { return s.cfg.Phantom }

// Faults returns the total number of write faults delivered so far.
func (s *AddressSpace) Faults() uint64 {
	s.settle()
	return s.faults
}

// WrittenBytes returns the total number of bytes logically written (the
// sum of Write/WriteRange lengths, not page-rounded).
func (s *AddressSpace) WrittenBytes() uint64 {
	s.settle()
	return s.writeBytes
}

func (s *AddressSpace) roundUp(n uint64) uint64 {
	ps := s.cfg.PageSize
	return (n + ps - 1) &^ (ps - 1)
}

// insert creates a region and splices it into the sorted live list.
func (s *AddressSpace) insert(start, size uint64, kind Kind) *Region {
	r := &Region{start: start, size: size, kind: kind, space: s}
	i := sort.Search(len(s.regions), func(i int) bool { return s.regions[i].start >= start })
	s.regions = append(s.regions, nil)
	copy(s.regions[i+1:], s.regions[i:])
	s.regions[i] = r
	return r
}

func (s *AddressSpace) remove(r *Region) {
	// The live list is sorted by start, so the victim's index is a binary
	// search away — removal stays O(log n + move), not a linear scan.
	i := sort.Search(len(s.regions), func(i int) bool { return s.regions[i].start >= r.start })
	if i < len(s.regions) && s.regions[i] == r {
		s.regions = append(s.regions[:i], s.regions[i+1:]...)
	}
	r.dead = true
	if s.lastHit == r {
		s.lastHit = nil
	}
}

// MapData maps the initialized-data region. It may be called once.
func (s *AddressSpace) MapData(size uint64) *Region {
	s.settle()
	for _, r := range s.regions {
		if r.kind == Data {
			panic("mem: data region already mapped")
		}
	}
	r := s.insert(dataBase, s.roundUp(size), Data)
	s.mapEvent(r, true)
	return r
}

// Mmap maps a new anonymous arena of at least size bytes (page-rounded)
// and returns its region, at the lowest address from the arena base up
// that no live region overlaps: address-ordered first fit over the gaps
// the live regions leave. A workload that frees and re-maps same-sized
// arenas — as Sage's Fortran90 allocator does — observes remapping at
// recycled addresses. The placement reads nothing but the live regions,
// so a space a restore recreated with MapAt places its next arenas where
// the original would have.
func (s *AddressSpace) Mmap(size uint64) (*Region, error) { return s.mmap(size, Mmap) }

// MapBounce maps an MPI bounce arena of at least size bytes where Mmap
// would have placed an arena. No dirty log watches it and no checkpoint
// holds it, but it counts toward the footprint.
func (s *AddressSpace) MapBounce(size uint64) (*Region, error) { return s.mmap(size, Bounce) }

func (s *AddressSpace) mmap(size uint64, kind Kind) (*Region, error) {
	s.settle()
	rounded := s.roundUp(size) // 0 for a size of 0 and one that wraps
	if rounded == 0 {
		return nil, fmt.Errorf("%w: mmap of %d bytes", ErrBadRange, size)
	}
	size = rounded
	at := mmapBase // the candidate start: no region passed so far reaches past it
	for _, r := range s.regions {
		if r.start >= at && r.start-at >= size {
			break // the gap below r holds the arena
		}
		at = max(at, r.End())
	}
	if at+size < at {
		return nil, fmt.Errorf("%w: no room for an arena of %d bytes", ErrBadRange, size)
	}
	r := s.insert(at, size, kind)
	s.mapEvent(r, true)
	return r, nil
}

// Munmap unmaps an arena previously returned by Mmap. The pages cease to
// exist: their protection state and contents are discarded, which is what
// enables the paper's memory-exclusion optimisation (§4.2).
func (s *AddressSpace) Munmap(r *Region) error {
	s.settle()
	if r == nil || r.dead || r.kind != Mmap || r.space != s {
		return fmt.Errorf("%w: munmap of invalid region", ErrBadRange)
	}
	s.remove(r)
	s.mapEvent(r, false)
	return nil
}

// MapAt maps a region of the given kind at an explicit address — the
// restore path, which must recreate regions at their original addresses.
// start must be page-aligned, the page-rounded range must not wrap past
// the top of the address space, and it must not overlap any live region.
// Being live, the region is one no later Mmap places an arena over,
// whatever its kind.
func (s *AddressSpace) MapAt(start, size uint64, kind Kind) (*Region, error) {
	s.settle()
	rounded := s.roundUp(size)
	if start%s.cfg.PageSize != 0 || size == 0 || start+rounded <= start {
		return nil, fmt.Errorf("%w: MapAt(%#x, %d)", ErrBadRange, start, size)
	}
	size = rounded
	for _, r := range s.regions {
		if start < r.End() && r.start < start+size {
			return nil, fmt.Errorf("%w: MapAt overlaps %v region at %#x", ErrBadRange, r.kind, r.start)
		}
	}
	r := s.insert(start, size, kind)
	s.mapEvent(r, true)
	return r, nil
}

// Find returns the live region containing addr, or nil.
func (s *AddressSpace) Find(addr uint64) *Region {
	if h := s.lastHit; h != nil && !h.dead && addr >= h.start && addr < h.End() {
		return h
	}
	i := sort.Search(len(s.regions), func(i int) bool { return s.regions[i].End() > addr })
	if i < len(s.regions) && addr >= s.regions[i].start {
		s.lastHit = s.regions[i]
		return s.regions[i]
	}
	return nil
}

// Regions returns the live regions in address order. The returned slice
// is a copy; the regions themselves are shared.
func (s *AddressSpace) Regions() []*Region {
	return s.AppendRegions(make([]*Region, 0, len(s.regions)))
}

// AppendRegions appends the live regions, in address order, to dst and
// returns the extended slice: Regions into a caller's reused buffer.
func (s *AddressSpace) AppendRegions(dst []*Region) []*Region {
	return append(dst, s.regions...)
}

// Footprint returns the total mapped bytes of non-stack regions — the
// paper's "memory footprint", bounce arenas included.
func (s *AddressSpace) Footprint() uint64 {
	var n uint64
	for _, r := range s.regions {
		if r.kind != Stack {
			n += r.size
		}
	}
	return n
}

// mapEvent hands a region's map (or unmap) to each open log, top of the
// stack first.
func (s *AddressSpace) mapEvent(r *Region, mapped bool) {
	for i := len(s.logs) - 1; i >= 0; i-- {
		s.logs[i].mapEvent(r, mapped)
	}
}

// faultWord delivers the write faults on the protected pages m of bitmap
// word w of r: the one delivery body, of which a single fault is the
// one-bit case. When the open logs record r (every log watches the
// same regions), it does what the paper's SIGSEGV catcher does: it
// unprotects the pages once, so later writes in the interval proceed
// at full speed — the word's summary bit clears if the word goes to
// zero — and then each log, top of the stack first, logs them and
// hands them to its OnFault. The space then counts the faults and
// clears them from the silent bits (a delivered fault means the page
// is observed after all, so an earlier DMA write to it is no longer
// silent). When no log records r, only the lowest page of m faults —
// it is counted and un-silenced but stays protected — and faultWord
// reports false: the write fails there with ErrSegv.
func (s *AddressSpace) faultWord(r *Region, w, m uint64) bool {
	recorded := len(s.logs) > 0 && r.watched()
	if recorded {
		r.unprotect(w, m)
		for i := len(s.logs) - 1; i >= 0; i-- {
			l := s.logs[i]
			if r != l.lastR {
				l.lastR, l.lastSet = r, l.setFor(r)
			}
			l.lastSet.OrWord(w, m)
			l.faults += uint64(bits.OnesCount64(m))
			if l.OnFault != nil {
				l.OnFault(r, w, m)
			}
		}
	} else {
		m &= -m
	}
	s.faults += uint64(bits.OnesCount64(m))
	if r.silent != nil {
		r.silent[w] &^= m
	}
	return recorded
}

// checkRange locates the region wholly containing [addr, addr+n) or fails.
func (s *AddressSpace) checkRange(addr, n uint64) (*Region, error) {
	r := s.Find(addr)
	if r == nil {
		return nil, fmt.Errorf("%w: %#x", ErrUnmapped, addr)
	}
	// addr is inside r, so End()-addr cannot wrap where addr+n can.
	if n > r.End()-addr {
		return nil, fmt.Errorf("%w: %d bytes at %#x cross region end %#x", ErrBadRange, n, addr, r.End())
	}
	return r, nil
}

// PageRun lends the caller the storage behind one byte range of a
// region, so a consumer that knows its own element layout reads or
// writes memory in place instead of staging through a buffer. Next
// lends the whole range at once: a region's pages are one slab.
//
// The lend contract: a chunk is the region's own storage — valid until
// the region is unmapped, so retained no longer than the caller can rule
// that out; a store run's chunk is the caller's to overwrite, a read
// run's is not. A store chunk's faults are delivered before it is lent,
// so it is also held no longer than the caller can rule out a page of it
// being re-protected: a store into it after that would go unseen. The
// kernels' Stencil2D.Step holds a load chunk and a store chunk across
// one sweep. A sweep fires no events, so nothing can unmap a region or
// re-protect a page between the run's faults and the sweep's end. A
// phantom space lends nothing (a nil chunk) but faults and counts
// identically.
//
// It is a value: hold it in a local, it allocates nothing.
type PageRun struct {
	r     *Region
	addr  uint64
	n     uint64 // bytes of the range not lent yet
	store bool
	err   error
}

// StoreRun begins a CPU store of n bytes at addr: the range is located
// once, and Next first delivers the write faults of its protected pages
// in ascending page order — the same faults and logs as WriteRange —
// then lends the range and counts the n bytes. A protected page no open
// log records ends the run with ErrSegv: Next lends only the pages
// before it, to be stored, and counts nothing.
func (s *AddressSpace) StoreRun(addr, n uint64) (PageRun, error) {
	return s.run(addr, n, true)
}

// LoadRun begins a read of n bytes at addr. Reads never fault (the paper
// tracks write accesses only) and never mark a page written: a page
// that was never written lends zeros, and PeekPage still reports it nil.
func (s *AddressSpace) LoadRun(addr, n uint64) (PageRun, error) {
	return s.run(addr, n, false)
}

func (s *AddressSpace) run(addr, n uint64, store bool) (PageRun, error) {
	if n == 0 {
		return PageRun{}, nil
	}
	r, err := s.checkRange(addr, n)
	if err != nil {
		return PageRun{}, err
	}
	return PageRun{r: r, addr: addr, n: n, store: store}, nil
}

// Next lends the range: n bytes of storage in b, n > 0 — or, on a
// phantom space, n bytes and a nil b. A store run that died with ErrSegv
// lends only the bytes before the page it died on (see Err). n is 0 once
// the range is lent, or when a store died on its first page.
func (p *PageRun) Next() (b []byte, n int) {
	if p.n == 0 {
		return nil, 0
	}
	r, s := p.r, p.r.space
	end := p.addr + p.n
	if p.store {
		if end = s.deliver(r, p.addr, p.n); end == p.addr+p.n {
			s.writeBytes += p.n
		} else {
			p.err = fmt.Errorf("%w: write to %#x", ErrSegv, end)
		}
	}
	size := end - p.addr
	p.n = 0
	switch {
	case size == 0 || s.cfg.Phantom:
	case p.store:
		b = r.store(p.addr, size)
	default:
		b = r.bytes(p.addr, size)
	}
	return b, int(size)
}

// Err returns the ErrSegv that ended a store run early, if any.
func (p *PageRun) Err() error { return p.err }

// deliver delivers the write faults on the protected pages of [addr,
// addr+n), a range inside r, a bitmap word at a time in ascending page
// order (faultWord), and returns where the write stops: addr+n, or the
// first page no open log records — never before addr — where it fails
// with ErrSegv.
func (s *AddressSpace) deliver(r *Region, addr, n uint64) uint64 {
	if !r.armed { // nothing protected: no walk
		return addr + n
	}
	last := r.PageIndex(addr + n - 1)
	for w, m := r.protected(r.PageIndex(addr), last); m != 0; w, m = r.protected(w*64+64, last) {
		if !s.faultWord(r, w, m) {
			return max(r.PageAddr(w*64+uint64(bits.TrailingZeros64(m))), addr)
		}
		if w == last/64 { // the range's last word: nothing left to walk
			break
		}
	}
	return addr + n
}

// Write stores data at addr, faulting on protected pages first. In
// phantom mode the bytes are discarded but protection checks, fault
// delivery and accounting behave identically.
func (s *AddressSpace) Write(addr uint64, data []byte) error {
	run, err := s.StoreRun(addr, uint64(len(data)))
	if err != nil {
		return err
	}
	b, _ := run.Next()
	copy(b, data)
	return run.Err()
}

// Read copies memory at addr into buf. Reads never fault: the paper
// tracks write accesses only. Reading in phantom mode zero-fills.
//
//lint:ignore deadexport byte-wise probe the ckpt, migrate, mpi and kernels tests read memory back with
func (s *AddressSpace) Read(addr uint64, buf []byte) error {
	run, err := s.LoadRun(addr, uint64(len(buf)))
	if err != nil {
		return err
	}
	if b, _ := run.Next(); b != nil {
		copy(buf, b)
	} else {
		clear(buf)
	}
	return nil
}

// WriteRange marks the whole byte range [addr, addr+n) as written,
// faulting on each protected page it touches, without supplying contents.
// It is the bulk path used by synthetic workloads sweeping large extents:
// unprotected memory is skipped through the bitmap's summary, 4,096
// pages per load (protected), a region nothing protected costs no walk
// at all, and the protected pages of a word are delivered to the open
// logs at once (faultWord). A
// protected page of a region no open log records ends the write with
// ErrSegv, the pages before it faulted and nothing filled. In backed
// mode the range is filled with a rolling per-call byte value so
// contents remain deterministic.
func (s *AddressSpace) WriteRange(addr, n uint64) error {
	return s.RewriteRange(addr, n, 1)
}

// RewriteRange is k back-to-back WriteRange(addr, n) calls, stopping at
// the first error, in O(1) of k. Only the first call can fault: a
// delivered fault unprotects its page, and an undelivered one fails the
// call with ErrSegv at the same address. The rest count their bytes and,
// in backed mode, leave the range holding the k-th call's fill value.
// k == 0 writes nothing.
func (s *AddressSpace) RewriteRange(addr, n, k uint64) error {
	if n == 0 || k == 0 {
		return nil
	}
	r, err := s.checkRange(addr, n)
	if err != nil {
		return err
	}
	if end := s.deliver(r, addr, n); end != addr+n {
		return fmt.Errorf("%w: write to %#x", ErrSegv, end)
	}
	s.writeBytes += (k - 1) * n
	s.writeSeq += byte(k - 1)
	s.fill(r, addr, n)
	return nil
}

// fill completes a contents-free bulk write of [addr, addr+n) inside r,
// fault-delivering or DMA: a backed space gets the next rolling byte
// value, one per call, so contents stay deterministic; every space
// counts the bytes.
func (s *AddressSpace) fill(r *Region, addr, n uint64) {
	s.writeBytes += n
	if s.cfg.Phantom {
		return
	}
	s.writeSeq++
	b, v := r.store(addr, n), s.writeSeq
	for i := range b {
		b[i] = v
	}
}
