package ckpt

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/des"
	"repro/internal/mem"
	"repro/internal/storage"
)

// Fuzz targets for every parser that consumes bytes a decayed storage
// tier may have mangled: the contract is typed errors on hostile input,
// never a panic, and exact round-trips on valid input.

func fuzzSegment() *Segment {
	return &Segment{
		Rank:     3,
		Seq:      7,
		Epoch:    5,
		Kind:     Incremental,
		PageSize: 64,
		Regions:  []RegionInfo{{Start: 0, Size: 256}},
		Pages: []PageRecord{
			{Addr: 0, Data: bytes.Repeat([]byte{0xAB}, 64)},
			{Addr: 64, Data: append(bytes.Repeat([]byte{0}, 32), bytes.Repeat([]byte{9}, 32)...)},
			{Addr: 192}, // zero page, elided payload
		},
	}
}

func FuzzDecodeSegment(f *testing.F) {
	f.Add(fuzzSegment().Encode())
	compressed, _ := fuzzSegment().encode(nil, true)
	f.Add(compressed)
	full := fuzzSegment()
	full.Kind = Full
	full.ContentFree = true
	full.Pages = full.Pages[2:]
	f.Add(full.Encode())
	// Content-free runs: pages coalesced across a record and a run, a
	// gap, then a long run.
	runs := fuzzSegment()
	runs.ContentFree = true
	runs.Runs = []PageRun{{Addr: 256, Pages: 1}, {Addr: 1024, Pages: 3}, {Addr: 4096, Pages: 1 << 20}}
	f.Add(runs.Encode())
	f.Add([]byte("ICKP"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSegment(data)
		if err != nil {
			return // typed rejection is the contract; a panic fails the fuzz
		}
		// Anything accepted must re-encode and re-decode to itself, and
		// content-free runs, being canonical, to the very same bytes.
		enc := s.Encode()
		if s.ContentFree && !bytes.Equal(enc, data) {
			t.Fatal("accepted content-free segment re-encodes to other bytes")
		}
		s2, err := DecodeSegment(enc)
		if err != nil {
			t.Fatalf("accepted segment did not re-decode: %v", err)
		}
		if s2.Rank != s.Rank || s2.Seq != s.Seq || s2.Epoch != s.Epoch ||
			s2.Kind != s.Kind || len(s2.Pages) != len(s.Pages) ||
			len(s2.Runs) != len(s.Runs) || s2.PageTotal() != s.PageTotal() {
			t.Fatalf("re-decode mismatch: %+v vs %+v", s2, s)
		}
	})
}

func FuzzRLEDecompress(f *testing.F) {
	for _, src := range [][]byte{
		bytes.Repeat([]byte{0}, 128),
		append(bytes.Repeat([]byte{1}, 60), []byte{2, 3, 4, 5}...),
		{0x00, 0x04, 0x00, 0xFF}, // hand-rolled run record
		{0x01, 0x02, 0x00, 7, 8}, // hand-rolled literal record
		{},
	} {
		if enc := rleCompress(src); enc != nil {
			f.Add(enc, len(src))
		} else {
			f.Add(src, len(src))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, want int) {
		if want < 0 || want > 1<<16 {
			return
		}
		out, err := rleDecompress(data, want)
		if err == nil && len(out) != want {
			t.Fatalf("decompress returned %d bytes, want %d", len(out), want)
		}
	})
}

func FuzzRLERoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xCC}, 256))
	f.Add([]byte{1, 1, 1, 1, 1, 2, 2, 2, 2, 3})
	f.Fuzz(func(t *testing.T, src []byte) {
		enc := rleCompress(src)
		if enc == nil {
			return // incompressible: caller keeps the raw page
		}
		dec, err := rleDecompress(enc, len(src))
		if err != nil {
			t.Fatalf("own output rejected: %v", err)
		}
		if !bytes.Equal(dec, src) {
			t.Fatal("round trip mismatch")
		}
	})
}

func FuzzParseSegmentKey(f *testing.F) {
	f.Add(SegmentKey(0, 0))
	f.Add(SegmentKey(999, 123456))
	f.Add("rank003/seg000007")
	f.Add("commit/seq000001")
	f.Add("rank/seg")
	f.Add("")
	f.Fuzz(func(t *testing.T, key string) {
		var rank int
		var seq uint64
		if !ParseSegmentKey(key, &rank, &seq) {
			return
		}
		// The parser accepts exactly what SegmentKey prints.
		if got := SegmentKey(rank, seq); got != key {
			t.Fatalf("accepted %q, but SegmentKey(%d, %d) prints %q", key, rank, seq, got)
		}
	})
}

func FuzzParseCommitKey(f *testing.F) {
	f.Add(CommitKey(0))
	f.Add(CommitKey(1234567))
	f.Add("commit/seq42")
	f.Add("commit/seq0000042")
	f.Add("rank003/seg000007")
	f.Add("")
	f.Fuzz(func(t *testing.T, key string) {
		var seq uint64
		if !ParseCommitKey(key, &seq) {
			return
		}
		// The parser accepts exactly what CommitKey prints.
		if got := CommitKey(seq); got != key {
			t.Fatalf("accepted %q, but CommitKey(%d) prints %q", key, seq, got)
		}
	})
}

func FuzzDecodeCommitMarker(f *testing.F) {
	f.Add(EncodeCommitMarker(CommitMarker{Seq: 0, Ranks: 1, At: 0}))
	f.Add(EncodeCommitMarker(CommitMarker{Seq: 42, Ranks: 64, At: 9 * des.Second}))
	f.Add([]byte("GCMT"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeCommitMarker(data)
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeCommitMarker(m), data) {
			t.Fatal("accepted marker did not re-encode to itself")
		}
	})
}

// fuzzBase is where fuzzChain's one region starts.
const fuzzBase = 0x1000_0000

// fuzzChain is rank 0's chain 0(F) 1 2 of 512-byte pages over one
// four-page region: what FuzzVerifyAgreesWithRestore mutates.
func fuzzChain() []*Segment {
	const ps, base = 512, fuzzBase
	page := func(i uint64, b byte) PageRecord {
		return PageRecord{Addr: base + i*ps, Data: bytes.Repeat([]byte{b}, ps)}
	}
	regions := []RegionInfo{{Start: base, Size: 4 * ps, Kind: mem.Mmap}}
	return []*Segment{
		{Seq: 0, Kind: Full, PageSize: ps, Regions: slices.Clone(regions), Pages: []PageRecord{page(0, 1), page(1, 2), {Addr: base + 2*ps}, page(3, 3)}},
		{Seq: 1, Kind: Incremental, PageSize: ps, Regions: slices.Clone(regions), Pages: []PageRecord{page(0, 4)}},
		{Seq: 2, Kind: Incremental, PageSize: ps, Regions: slices.Clone(regions), Pages: []PageRecord{page(1, 5)}},
	}
}

// fuzzAddr maps a byte to an address near the chain's region, inside or
// around the stack, or far up the address space.
func fuzzAddr(v byte) uint64 {
	off := uint64(v/4) * 256
	switch v % 4 {
	case 0:
		return fuzzBase - 1024 + off
	case 1:
		return mem.StackTop - mem.StackSize + off
	case 2:
		return mem.StackTop - 1024 + off
	}
	return uint64(v) << 56
}

// FuzzVerifyAgreesWithRestore: VerifyChain and a restore (replayChain)
// are one chain walk, so on any chain — headers, region tables and page
// records mutated, then re-encoded so every segment is valid bytes —
// VerifyChain returns nil exactly when the restore into a fresh space
// with the target's page size does, an error is the same error from
// both, and the restore never panics. Each line also has a COMMIT
// marker, which may be corrupt, labeled another line or rank count, or
// missing; on the store RestoreLatest picks, prices and restores under
// both trust rules what the separate passes do (checkOnePass). ops is
// read in triples: segment (or marker), field, value. Sizes and page
// sizes stay small, or pass maxRegionSize, which the walk refuses: a
// restore makes a region's whole slab on its first page.
func FuzzVerifyAgreesWithRestore(f *testing.F) {
	f.Add(uint8(2), []byte{})
	f.Add(uint8(2), []byte{1, 5, 4, 1, 12, 3}) // mid-chain page size 1024, and a 1024-byte page
	f.Add(uint8(2), []byte{1, 2, 3})           // mid-chain foreign epoch
	f.Add(uint8(2), []byte{2, 2, 3})           // target epoch after the target
	f.Add(uint8(2), []byte{1, 0, 1})           // mid-chain rank label
	f.Add(uint8(2), []byte{1, 3, 0})           // mid-chain full kind
	f.Add(uint8(2), []byte{1, 11, 1})          // page record at the stack
	f.Add(uint8(1), []byte{0, 4, 1})           // content-free base
	f.Add(uint8(2), []byte{0, 15, 0})          // missing base
	f.Add(uint8(2), []byte{2, 9, 1})           // second region over the stack
	f.Add(uint8(2), []byte{2, 7, 128 + 4})     // target region of terabytes
	f.Add(uint8(2), []byte{2, 16, 0})          // corrupt newest marker
	f.Add(uint8(2), []byte{2, 17, 1})          // newest marker labeled line 1
	f.Add(uint8(2), []byte{2, 18, 2})          // newest marker for two ranks
	f.Add(uint8(2), []byte{2, 19, 0, 1, 3, 0}) // newest marker missing, mid-chain full kind
	f.Fuzz(func(t *testing.T, target uint8, ops []byte) {
		chain := fuzzChain()
		missing := make([]bool, len(chain))
		markers := make([][]byte, len(chain))
		for i := range markers {
			markers[i] = EncodeCommitMarker(CommitMarker{Seq: uint64(i), Ranks: 1})
		}
		for ; len(ops) >= 3; ops = ops[3:] {
			i, v := int(ops[0])%len(chain), ops[2]
			s := chain[i]
			switch ops[1] % 20 {
			case 0:
				s.Rank = int(v % 3)
			case 1:
				s.Seq = uint64(v % 4)
			case 2:
				s.Epoch = uint64(v % 4)
			case 3:
				s.Kind = Kind(v % 2)
			case 4:
				s.ContentFree = v%2 == 1
			case 5:
				s.PageSize = []uint64{0, 256, 512, 768, 1024, 4096}[v%6]
			case 6:
				if n := len(s.Regions); n > 0 {
					s.Regions[n-1].Start = fuzzAddr(v)
				}
			case 7:
				if n := len(s.Regions); n > 0 {
					s.Regions[n-1].Size = uint64(v%8) * 256 << (v / 128 * 32) // v ≥ 128: terabytes
				}
			case 8:
				if n := len(s.Regions); n > 0 {
					s.Regions[n-1].Kind = mem.Kind(v % 6)
				}
			case 9:
				s.Regions = append(s.Regions, RegionInfo{Start: fuzzAddr(v), Size: 512, Kind: mem.Mmap})
			case 10:
				s.Regions = s.Regions[:len(s.Regions)/2]
			case 11:
				if len(s.Pages) > 0 {
					s.Pages[int(v)%len(s.Pages)].Addr = fuzzAddr(v)
				}
			case 12:
				if len(s.Pages) > 0 {
					s.Pages[int(v)%len(s.Pages)].Data = bytes.Repeat([]byte{0xee}, []int{0, 256, 512, 1024}[v%4])
				}
			case 13:
				s.Pages = append(s.Pages, PageRecord{Addr: fuzzAddr(v), Data: bytes.Repeat([]byte{v}, 512)})
			case 14:
				s.Pages = nil
			case 15:
				missing[i] = true
			case 16:
				markers[i] = []byte{v}
			case 17:
				markers[i] = EncodeCommitMarker(CommitMarker{Seq: uint64(v % 4), Ranks: 1})
			case 18:
				markers[i] = EncodeCommitMarker(CommitMarker{Seq: uint64(i), Ranks: int(v % 3)})
			default:
				markers[i] = nil
			}
		}
		store := storage.NewMemStore()
		for i, s := range chain {
			if !missing[i] {
				if err := store.Put(SegmentKey(0, uint64(i)), s.Encode()); err != nil {
					t.Fatal(err)
				}
			}
			if markers[i] != nil {
				if err := store.Put(CommitKey(uint64(i)), markers[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		checkOnePass(t, store, 1)
		seq := uint64(target) % uint64(len(chain))
		verr := VerifyChain(store, 0, seq)
		_, _, rerr := replayChain(store, 0, seq)
		if (verr == nil) != (rerr == nil) || verr != nil && verr.Error() != rerr.Error() {
			t.Fatalf("VerifyChain = %v, replayChain = %v", verr, rerr)
		}
	})
}
