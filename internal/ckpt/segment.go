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

// PageRecord is one saved page. Data is nil for all-zero pages that were
// never materialised. A content-free segment (phantom address spaces,
// used for volume accounting at full scale) records no page data, so
// its encoder coalesces its records into page runs.
type PageRecord struct {
	Addr uint64
	Data []byte
}

// PageRun is Pages consecutive pages of a content-free segment, the
// first at Addr: the wire form of content-free records.
type PageRun struct {
	Addr  uint64
	Pages uint64
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
	// Pages are the page records, in the order they are encoded. A
	// decoded content-free segment has none: its pages are Runs, never
	// expanded, so a decode allocates in proportion to its input.
	Pages []PageRecord
	// Runs are a content-free segment's pages as decoded: canonical
	// (non-empty, page-aligned, ascending, none adjacent to the next).
	// Encode writes them after Pages.
	Runs []PageRun
}

// PageTotal returns the number of pages the segment records, in Pages
// and Runs together.
func (s *Segment) PageTotal() uint64 {
	n := uint64(len(s.Pages))
	for _, r := range s.Runs {
		n += r.Pages
	}
	return n
}

const (
	segmentMagic = "ICKP"
	// segmentVersion 2 records a content-free segment's pages as page
	// runs; version 1, one address per page, is not read.
	segmentVersion = 2
	// page record header values
	pageZero    = 0 // never-written page, elided
	pageHasData = 1 // raw page bytes follow
	pageRLE     = 2 // u32 stream length + RLE stream follow
	// runLen is the wire size of a page run: start address and count.
	runLen = 16
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
	if s.ContentFree {
		t := runTail{ps: s.PageSize}
		for _, p := range s.Pages {
			t.extend(p.Addr, 1)
		}
		for _, r := range s.Runs {
			if r.Pages > 0 {
				t.extend(r.Addr, r.Pages)
			}
		}
		size = runLen * t.runs
	} else {
		for _, p := range s.Pages {
			size += recordCap(compress, uint64(len(p.Data)))
		}
	}
	w := newSegWriter(dst, s, size, compress)
	for _, p := range s.Pages {
		w.page(p.Addr, p.Data)
	}
	if s.ContentFree {
		for _, r := range s.Runs {
			w.addrRun(r.Addr, r.Pages)
		}
	}
	return w.finish(), w.payload
}

// segHeaderLen is the fixed part of the wire form ahead of the region
// table: magic, version, rank, seq, epoch, kind, content-free flag, page
// size, capture time and region count.
const segHeaderLen = 4 + 4 + 4 + 8 + 8 + 1 + 1 + 8 + 8 + 4

// segWriter is the one segment encoder. It streams records into a
// single buffer sized up front — the header and region table are
// fixed-size and the caller bounds the records — so a capture moves
// each page byte once, from the live page into the wire form, and no
// append reallocates. A content-free segment's records are page runs.
type segWriter struct {
	buf         []byte
	countOff    int // offset of the u64 record count, patched by finish
	contentFree bool
	compress    bool
	pages       uint64
	payload     uint64  // page-data bytes written, after zero elision and RLE
	tail        runTail // content-free: the runs written so far
}

// runTail is the content-free run rule, which the writer and a
// capture's size pass share so that they agree on the record count:
// pages that start where the last run ends extend it, any others start
// a run.
type runTail struct {
	ps   uint64
	runs uint64 // runs started
	end  uint64 // address just past the last run
}

// extend adds n ≥ 1 pages, the first at addr, and reports whether they
// extend the last run rather than start one.
func (t *runTail) extend(addr, n uint64) bool {
	ext := t.runs > 0 && addr == t.end
	if !ext {
		t.runs++
	}
	t.end = addr + n*t.ps
	return ext
}

// word adds the pages of bitmap word m ≠ 0 — bit b is the page at
// base + b·ps — as segWriter.addrWord writes them: a run starts at each
// set bit whose lower neighbour is clear, bit 0's lower neighbour being
// the page before base, set when the last run ends at base.
func (t *runTail) word(base, m uint64) {
	var carry uint64
	if t.runs > 0 && t.end == base {
		carry = 1
	}
	t.runs += uint64(bits.OnesCount64(m &^ (m<<1 | carry)))
	t.end = base + uint64(64-bits.LeadingZeros64(m))*t.ps
}

// recordCap is the most one page record with n data bytes can occupy:
// the address, a flag and the data. It is exact for raw records; zero
// pages and RLE only shrink one (an RLE record spends 4 bytes on a
// length to save at least 1).
func recordCap(compress bool, n uint64) uint64 {
	if compress {
		n += 3
	}
	return 8 + 1 + n
}

// newSegWriter appends hdr's header and region table (hdr.Pages and
// hdr.Runs are ignored) to dst and reserves recCap bytes for the records
// to come — in dst's own spare capacity when that suffices.
func newSegWriter(dst []byte, hdr *Segment, recCap uint64, compress bool) segWriter {
	le := binary.LittleEndian
	buf := dst
	if need := segHeaderLen + 17*len(hdr.Regions) + 8 + int(recCap); cap(buf)-len(buf) < need {
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
	return segWriter{
		buf: le.AppendUint64(buf, 0), countOff: len(buf),
		contentFree: hdr.ContentFree, compress: compress, tail: runTail{ps: hdr.PageSize},
	}
}

// page appends one page record. data is read, never retained: nil is an
// elided zero page, and a content-free segment records the page alone,
// as a one-page run.
func (w *segWriter) page(addr uint64, data []byte) {
	if w.contentFree {
		w.addrRun(addr, 1)
		return
	}
	le := binary.LittleEndian
	w.pages++
	w.buf = le.AppendUint64(w.buf, addr)
	switch {
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

// addrRun records n consecutive pages of a content-free segment, the
// first at addr — a whole region of a full capture — as one run, or as
// more of the last run when that ends at addr.
func (w *segWriter) addrRun(addr, n uint64) {
	if n == 0 {
		return
	}
	le := binary.LittleEndian
	w.pages += n
	if w.tail.extend(addr, n) {
		count := w.buf[len(w.buf)-8:]
		le.PutUint64(count, le.Uint64(count)+n)
		return
	}
	w.buf = le.AppendUint64(le.AppendUint64(w.buf, addr), n)
}

// addrWord records the pages of bitmap word m of a content-free segment
// — bit b is the page at base + b·ps — a run of set bits at a time, the
// first extending the last run when that ends at base.
func (w *segWriter) addrWord(base, m uint64) {
	for m != 0 {
		lo := bits.TrailingZeros64(m)
		n := bits.TrailingZeros64(^(m >> lo))
		w.addrRun(base+uint64(lo)*w.tail.ps, uint64(n))
		m &^= (uint64(1)<<n - 1) << lo
	}
}

// finish patches the record count — pages, or a content-free segment's
// runs — and returns the buffer with the encoded segment appended.
func (w *segWriter) finish() []byte {
	n := w.pages
	if w.contentFree {
		n = w.tail.runs
	}
	binary.LittleEndian.PutUint64(w.buf[w.countOff:], n)
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

// trailing refuses bytes left after the last record.
func (d *decoder) trailing() error {
	if d.off != len(d.b) {
		return fmt.Errorf("ckpt: %d trailing bytes", len(d.b)-d.off)
	}
	return nil
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
// write through the segment when data is a store's Get result. A
// content-free segment decodes into Runs and only canonical runs are
// accepted, so every segment it accepts re-encodes to the same bytes.
func DecodeSegment(data []byte) (*Segment, error) { return decodeSegment(new(Segment), data) }

// decodeSegment is DecodeSegment into s, reusing the capacity of its
// Regions, Pages and Runs: a chain walk decodes every mid-chain segment
// into one Segment.
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
	*s = Segment{Regions: s.Regions[:0], Pages: s.Pages[:0], Runs: s.Runs[:0]}
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
	if cf > 1 {
		return nil, fmt.Errorf("ckpt: bad content-free flag %d", cf)
	}
	s.ContentFree = cf == 1
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
	if s.ContentFree {
		if err := s.decodeRuns(d, np); err != nil {
			return nil, err
		}
		return s, d.trailing()
	}
	// Every page record costs at least its address and a flag byte, so
	// np is bounded by the bytes actually left.
	if np > uint64(len(data)-d.off)/9 {
		return nil, fmt.Errorf("ckpt: page count %d exceeds segment size", np)
	}
	s.Pages = slices.Grow(s.Pages, int(np))
	for i := uint64(0); i < np; i++ {
		var p PageRecord
		if p.Addr, err = d.u64(); err != nil {
			return nil, err
		}
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
		s.Pages = append(s.Pages, p)
	}
	return s, d.trailing()
}

// decodeRuns reads a content-free segment's n page runs into s.Runs,
// refusing any that are not canonical — empty, unaligned, running past
// the top of the address space, or not after the previous run's end
// (descending, overlapping or adjacent). The runs are never expanded
// into pages.
func (s *Segment) decodeRuns(d *decoder, n uint64) error {
	if n > uint64(len(d.b)-d.off)/runLen {
		return fmt.Errorf("ckpt: run count %d exceeds segment size", n)
	}
	s.Runs = slices.Grow(s.Runs, int(n))
	var end uint64
	for i := uint64(0); i < n; i++ {
		var r PageRun
		var err error
		if r.Addr, err = d.u64(); err != nil {
			return err
		}
		if r.Pages, err = d.u64(); err != nil {
			return err
		}
		hi, span := bits.Mul64(r.Pages, s.PageSize)
		stop, carry := bits.Add64(r.Addr, span, 0)
		switch {
		case r.Pages == 0:
			return fmt.Errorf("ckpt: empty page run at %#x", r.Addr)
		case r.Addr%s.PageSize != 0:
			return fmt.Errorf("ckpt: page run at %#x not page-aligned", r.Addr)
		case hi != 0 || carry != 0:
			return fmt.Errorf("ckpt: page run at %#x of %d pages overflows the address space", r.Addr, r.Pages)
		case i > 0 && r.Addr <= end:
			return fmt.Errorf("ckpt: page run at %#x not after the previous run's end %#x", r.Addr, end)
		}
		end = stop
		s.Runs = append(s.Runs, r)
	}
	return nil
}
