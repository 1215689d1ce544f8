package mem

import "encoding/binary"

// Address-space digests: a 64-bit fingerprint of region layout and page
// contents, used by the crash–restore–replay equivalence validator to
// assert that a restored-and-replayed run ends in the *bit-identical*
// process image of a failure-free run — a stronger claim than matching
// a floating-point checksum of the gathered solution, because it covers
// every checkpointable byte, not just the answer array.

// The digest starts from FNV-1a's offset and multiplies by its prime,
// but mixes a 64-bit word per step (digestState.word): the state takes
// the word, is multiplied by the prime, whose carries move low bits up,
// and folded by a shift, which moves the product's high bits down. Both
// are bijections of the state, so states that differ before a word
// differ after it, and a single changed word changes the digest.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// digestState accumulates the digest.
type digestState uint64

// word mixes one 64-bit word into the state.
func (h *digestState) word(v uint64) {
	x := (uint64(*h) ^ v) * fnvPrime64
	*h = digestState(x ^ x>>29)
}

// bytes mixes p in, eight bytes (little-endian) per step; a tail of
// fewer than eight bytes is one word, zero-padded above its length.
func (h *digestState) bytes(p []byte) {
	for len(p) >= 8 {
		h.word(binary.LittleEndian.Uint64(p))
		p = p[8:]
	}
	if len(p) > 0 {
		var tail [8]byte
		copy(tail[:], p)
		h.word(binary.LittleEndian.Uint64(tail[:]) | uint64(len(p))<<56)
	}
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

// Digest returns a 64-bit digest of the space's live region
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
		if skip == nil || !skip(r) {
			h.region(r)
		}
	}
	return uint64(h)
}

// Digest returns the digest of r alone: what its space's Digest returns
// when it skips every other region.
func (r *Region) Digest() uint64 {
	r.space.settle()
	h := digestState(fnvOffset64)
	h.region(r)
	return uint64(h)
}

// region mixes r's kind, start, size and, backed, its pages into h.
func (h *digestState) region(r *Region) {
	h.word(uint64(r.kind))
	h.word(r.start)
	h.word(r.size)
	if r.space.cfg.Phantom {
		return
	}
	ps := r.space.cfg.PageSize
	for off := uint64(0); off < r.size; off += ps {
		var pd []byte // a region with no slab is all zero
		if r.slab != nil {
			pd = r.slab[off : off+ps]
		}
		if pageIsZero(pd) {
			h.word(zeroPageMark)
			continue
		}
		h.word(dataPageMark)
		h.bytes(pd)
	}
}

// pageIsZero reports whether the page holds only zero bytes (a nil page
// was never written and is all-zero by definition), a word at a time.
func pageIsZero(p []byte) bool {
	var or uint64
	for len(p) >= 32 {
		or |= binary.LittleEndian.Uint64(p) | binary.LittleEndian.Uint64(p[8:]) |
			binary.LittleEndian.Uint64(p[16:]) | binary.LittleEndian.Uint64(p[24:])
		if or != 0 {
			return false
		}
		p = p[32:]
	}
	for _, b := range p {
		or |= uint64(b)
	}
	return or == 0
}
