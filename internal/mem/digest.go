package mem

// Address-space digests: a 64-bit fingerprint of region layout and page
// contents, used by the crash–restore–replay equivalence validator to
// assert that a restored-and-replayed run ends in the *bit-identical*
// process image of a failure-free run — a stronger claim than matching
// a floating-point checksum of the gathered solution, because it covers
// every checkpointable byte, not just the answer array.

// fnv64 constants (FNV-1a).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// digestState accumulates an FNV-1a hash.
type digestState uint64

func (h *digestState) bytes(p []byte) {
	x := uint64(*h)
	for _, b := range p {
		x ^= uint64(b)
		x *= fnvPrime64
	}
	*h = digestState(x)
}

func (h *digestState) u64(v uint64) {
	x := uint64(*h)
	for i := 0; i < 8; i++ {
		x ^= v & 0xff
		x *= fnvPrime64
		v >>= 8
	}
	*h = digestState(x)
}

// zeroPageMark and dataPageMark disambiguate the per-page encoding: each
// page contributes either the zero mark (never-written or materialised
// all-zero — the two must digest identically, because a restore
// materialises pages a fresh run never touched) or the data mark
// followed by the page's bytes.
const (
	zeroPageMark = 0x5A
	dataPageMark = 0xA5
)

// Digest returns a 64-bit FNV-1a digest of the space's live region
// layout and page contents. Regions are visited in address order (the
// space's canonical order), so the digest is deterministic. skip, when
// non-nil, excludes regions — callers exclude bounce arenas, stacks and
// other state outside the checkpoint contract. A
// never-written (nil) page and a materialised all-zero page digest
// identically. In phantom mode only the layout is digested, since pages
// carry no contents by construction.
func (s *AddressSpace) Digest(skip func(*Region) bool) uint64 {
	s.settle()
	h := digestState(fnvOffset64)
	for _, r := range s.regions {
		if skip != nil && skip(r) {
			continue
		}
		h.u64(uint64(r.kind))
		h.u64(r.start)
		h.u64(r.size)
		if s.cfg.Phantom {
			continue
		}
		ps := s.cfg.PageSize
		for off := uint64(0); off < r.size; off += ps {
			var pd []byte // a region with no slab is all zero
			if r.slab != nil {
				pd = r.slab[off : off+ps]
			}
			if pageIsZero(pd) {
				h.bytes([]byte{zeroPageMark})
				continue
			}
			h.bytes([]byte{dataPageMark})
			h.bytes(pd)
		}
	}
	return uint64(h)
}

// pageIsZero reports whether the page holds only zero bytes (a nil page
// was never written and is all-zero by definition).
func pageIsZero(p []byte) bool {
	for _, b := range p {
		if b != 0 {
			return false
		}
	}
	return true
}
