// Package ckpt implements the mechanism the paper argues is feasible:
// automatic, user-transparent incremental checkpointing. It builds on the
// same write-protection machinery as the tracker — each checkpoint saves
// the pages dirtied since the previous one (the delta), with periodic full
// checkpoints bounding the recovery chain — plus coordinated global
// checkpoints across MPI ranks, restore/rollback, the memory-exclusion
// optimisation for unmapped pages, and a copy-on-write accounting model
// that quantifies the cost of checkpointing in the middle of a processing
// burst (the paper's §6.2 observation).
package ckpt

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/des"
	"repro/internal/mem"
)

// Kind distinguishes full from incremental segments.
type Kind uint8

const (
	// Full segments contain every mapped checkpointable page.
	Full Kind = iota
	// Incremental segments contain only pages dirtied since the
	// previous segment.
	Incremental
)

// String returns "full" or "incremental".
func (k Kind) String() string {
	if k == Full {
		return "full"
	}
	return "incremental"
}

// RegionInfo records one mapped region at capture time, enough to recreate
// the address-space layout on restore.
type RegionInfo struct {
	Start uint64
	Size  uint64
	Kind  mem.Kind
}

// PageRecord is one saved page. Data is nil in content-free segments
// (phantom address spaces, used for volume accounting at full scale) and
// for all-zero pages that were never materialised.
type PageRecord struct {
	Addr uint64
	Data []byte
}

// Segment is one checkpoint of one rank.
type Segment struct {
	Rank        int
	Seq         uint64 // monotonically increasing per rank
	Epoch       uint64 // Seq of the base full segment of this chain
	Kind        Kind
	ContentFree bool
	PageSize    uint64
	TakenAt     des.Time
	Regions     []RegionInfo
	Pages       []PageRecord
}

const (
	segmentMagic   = "ICKP"
	segmentVersion = 1
	// page record header values
	pageZero    = 0 // never-written page, elided
	pageHasData = 1 // raw page bytes follow
	pageRLE     = 2 // u32 stream length + RLE stream follow
)

// Encode serialises the segment to a portable little-endian byte stream
// with raw (uncompressed) page payloads, in a fresh buffer of exactly
// the size needed.
func (s *Segment) Encode() []byte { return s.AppendEncode(nil) }

// AppendEncode appends what Encode returns to dst and returns the
// extended slice, allocating only when dst's spare capacity falls short
// — so a caller whose store borrows (storage.Store.Put) encodes every
// segment into one reused buffer.
func (s *Segment) AppendEncode(dst []byte) []byte {
	enc, _ := s.encode(dst, false)
	return enc
}

// encode appends the serialised segment to dst, with per-page RLE
// compression when compress is set (pages that do not shrink stay raw).
// It additionally returns the page payload volume actually persisted —
// the quantity a bandwidth-limited sink has to absorb.
func (s *Segment) encode(dst []byte, compress bool) ([]byte, uint64) {
	var size uint64
	for _, p := range s.Pages {
		size += recordCap(s.ContentFree, compress, uint64(len(p.Data)))
	}
	w := newSegWriter(dst, s, size, compress)
	for _, p := range s.Pages {
		w.page(p.Addr, p.Data)
	}
	return w.finish(), w.payload
}

// segHeaderLen is the fixed part of the wire form ahead of the region
// table: magic, version, rank, seq, epoch, kind, content-free flag, page
// size, capture time and region count.
const segHeaderLen = 4 + 4 + 4 + 8 + 8 + 1 + 1 + 8 + 8 + 4

// segWriter is the one segment encoder. It streams page records into a
// single buffer sized up front — the header and region table are
// fixed-size and the caller bounds the page records — so a capture moves
// each page byte once, from the live page into the wire form, and no
// append reallocates.
type segWriter struct {
	buf         []byte
	countOff    int // offset of the u64 page count, patched by finish
	contentFree bool
	compress    bool
	pages       uint64
	payload     uint64 // page-data bytes written, after zero elision and RLE
}

// recordCap is the most one page record with n data bytes can occupy:
// the address, plus — unless content-free — a flag and the data. It is
// exact for raw and content-free records; zero pages and RLE only shrink
// one (an RLE record spends 4 bytes on a length to save at least 1).
func recordCap(contentFree, compress bool, n uint64) uint64 {
	if contentFree {
		return 8
	}
	if compress {
		n += 3
	}
	return 8 + 1 + n
}

// newSegWriter appends hdr's header and region table (hdr.Pages is
// ignored) to dst and reserves pageCap bytes for the page records to
// come — in dst's own spare capacity when that suffices.
func newSegWriter(dst []byte, hdr *Segment, pageCap uint64, compress bool) segWriter {
	le := binary.LittleEndian
	buf := dst
	if need := segHeaderLen + 17*len(hdr.Regions) + 8 + int(pageCap); cap(buf)-len(buf) < need {
		buf = append(make([]byte, 0, len(dst)+need), dst...)
	}
	buf = append(buf, segmentMagic...)
	buf = le.AppendUint32(buf, segmentVersion)
	buf = le.AppendUint32(buf, uint32(hdr.Rank))
	buf = le.AppendUint64(buf, hdr.Seq)
	buf = le.AppendUint64(buf, hdr.Epoch)
	buf = append(buf, byte(hdr.Kind), 0)
	if hdr.ContentFree {
		buf[len(buf)-1] = 1
	}
	buf = le.AppendUint64(buf, hdr.PageSize)
	buf = le.AppendUint64(buf, uint64(hdr.TakenAt))
	buf = le.AppendUint32(buf, uint32(len(hdr.Regions)))
	for _, r := range hdr.Regions {
		buf = le.AppendUint64(buf, r.Start)
		buf = le.AppendUint64(buf, r.Size)
		buf = append(buf, byte(r.Kind))
	}
	return segWriter{buf: le.AppendUint64(buf, 0), countOff: len(buf), contentFree: hdr.ContentFree, compress: compress}
}

// page appends one page record. data is read, never retained: nil is an
// elided zero page, and content-free segments record the address only.
func (w *segWriter) page(addr uint64, data []byte) {
	le := binary.LittleEndian
	w.pages++
	w.buf = le.AppendUint64(w.buf, addr)
	switch {
	case w.contentFree:
		return
	case data == nil:
		w.buf = append(w.buf, pageZero)
		return
	case w.compress:
		if c := rleCompress(data); c != nil {
			w.buf = append(w.buf, pageRLE)
			w.buf = le.AppendUint32(w.buf, uint32(len(c)))
			w.buf = append(w.buf, c...)
			w.payload += uint64(len(c))
			return
		}
	}
	w.buf = append(w.buf, pageHasData)
	w.buf = append(w.buf, data...)
	w.payload += uint64(len(data))
}

// addrRun appends the content-free records of n consecutive pages, the
// first at addr: a whole region of a full capture.
func (w *segWriter) addrRun(addr, ps, n uint64) {
	for rec := w.addrs(n); len(rec) >= 8; rec = rec[8:] {
		binary.LittleEndian.PutUint64(rec, addr)
		addr += ps
	}
}

// addrWord appends the content-free records of the pages of bitmap word
// m, in ascending order: bit b is the page at base + b·ps. A full word —
// what a sweep leaves — is a run.
func (w *segWriter) addrWord(base, ps, m uint64) {
	if m == ^uint64(0) {
		w.addrRun(base, ps, 64)
		return
	}
	rec := w.addrs(uint64(bits.OnesCount64(m)))
	for i := 0; m != 0; m &= m - 1 {
		binary.LittleEndian.PutUint64(rec[i:i+8], base+uint64(bits.TrailingZeros64(m))*ps)
		i += 8
	}
}

// addrs extends the buffer by n content-free records, counted, and
// returns them for the caller to fill.
func (w *segWriter) addrs(n uint64) []byte {
	off := len(w.buf)
	w.buf = slices.Grow(w.buf, int(8*n))[:off+int(8*n)]
	w.pages += n
	return w.buf[off:]
}

// finish patches the page count and returns the buffer with the encoded
// segment appended.
func (w *segWriter) finish() []byte {
	binary.LittleEndian.PutUint64(w.buf[w.countOff:], w.pages)
	return w.buf
}

// decoder is a bounds-checked little-endian reader.
type decoder struct {
	b   []byte
	off int
}

func (d *decoder) need(n int) ([]byte, error) {
	if d.off+n > len(d.b) {
		return nil, fmt.Errorf("ckpt: truncated segment at offset %d (need %d of %d)", d.off, n, len(d.b))
	}
	out := d.b[d.off : d.off+n]
	d.off += n
	return out, nil
}

func (d *decoder) u8() (byte, error) {
	b, err := d.need(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (d *decoder) u32() (uint32, error) {
	b, err := d.need(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (d *decoder) u64() (uint64, error) {
	b, err := d.need(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// DecodeSegment parses a segment encoded by Encode, validating structure
// and bounds. Raw page records alias data rather than copying it, so the
// caller must not reuse data while the segment is live — and must not
// write through the segment when data is a store's Get result.
func DecodeSegment(data []byte) (*Segment, error) { return decodeSegment(new(Segment), data) }

// decodeSegment is DecodeSegment into s, reusing the capacity of its
// Regions and Pages: a chain walk decodes every mid-chain segment into
// one Segment.
func decodeSegment(s *Segment, data []byte) (*Segment, error) {
	d := &decoder{b: data}
	magic, err := d.need(4)
	if err != nil || string(magic) != segmentMagic {
		return nil, fmt.Errorf("ckpt: bad magic")
	}
	ver, err := d.u32()
	if err != nil || ver != segmentVersion {
		return nil, fmt.Errorf("ckpt: unsupported version %d", ver)
	}
	*s = Segment{Regions: s.Regions[:0], Pages: s.Pages[:0]}
	rank, err := d.u32()
	if err != nil {
		return nil, err
	}
	s.Rank = int(rank)
	if s.Seq, err = d.u64(); err != nil {
		return nil, err
	}
	if s.Epoch, err = d.u64(); err != nil {
		return nil, err
	}
	k, err := d.u8()
	if err != nil {
		return nil, err
	}
	if k > uint8(Incremental) {
		return nil, fmt.Errorf("ckpt: bad segment kind %d", k)
	}
	s.Kind = Kind(k)
	cf, err := d.u8()
	if err != nil {
		return nil, err
	}
	s.ContentFree = cf != 0
	if s.PageSize, err = d.u64(); err != nil {
		return nil, err
	}
	if s.PageSize == 0 || s.PageSize > 1<<30 || s.PageSize&(s.PageSize-1) != 0 {
		return nil, fmt.Errorf("ckpt: implausible page size %d", s.PageSize)
	}
	at, err := d.u64()
	if err != nil {
		return nil, err
	}
	s.TakenAt = des.Time(at)
	nr, err := d.u32()
	if err != nil {
		return nil, err
	}
	if uint64(nr)*17 > uint64(len(data)) {
		return nil, fmt.Errorf("ckpt: region count %d exceeds segment size", nr)
	}
	s.Regions = slices.Grow(s.Regions, int(nr))[:nr]
	for i := range s.Regions {
		if s.Regions[i].Start, err = d.u64(); err != nil {
			return nil, err
		}
		if s.Regions[i].Size, err = d.u64(); err != nil {
			return nil, err
		}
		rk, err := d.u8()
		if err != nil {
			return nil, err
		}
		s.Regions[i].Kind = mem.Kind(rk)
	}
	np, err := d.u64()
	if err != nil {
		return nil, err
	}
	// Every page record costs at least its address (plus a flag byte
	// unless content-free), so np is bounded by the bytes actually left.
	minRec := uint64(9)
	if s.ContentFree {
		minRec = 8
	}
	if np > uint64(len(data)-d.off)/minRec {
		return nil, fmt.Errorf("ckpt: page count %d exceeds segment size", np)
	}
	s.Pages = slices.Grow(s.Pages, int(np))
	for i := uint64(0); i < np; i++ {
		var p PageRecord
		if p.Addr, err = d.u64(); err != nil {
			return nil, err
		}
		if !s.ContentFree {
			flag, err := d.u8()
			if err != nil {
				return nil, err
			}
			switch flag {
			case pageZero:
				// elided zero page
			case pageHasData:
				raw, err := d.need(int(s.PageSize))
				if err != nil {
					return nil, err
				}
				p.Data = raw[:len(raw):len(raw)]
			case pageRLE:
				n, err := d.u32()
				if err != nil {
					return nil, err
				}
				stream, err := d.need(int(n))
				if err != nil {
					return nil, err
				}
				p.Data, err = rleDecompress(stream, int(s.PageSize))
				if err != nil {
					return nil, err
				}
			default:
				return nil, fmt.Errorf("ckpt: bad page flag %d", flag)
			}
		}
		s.Pages = append(s.Pages, p)
	}
	if d.off != len(data) {
		return nil, fmt.Errorf("ckpt: %d trailing bytes", len(data)-d.off)
	}
	return s, nil
}
