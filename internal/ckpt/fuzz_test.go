package ckpt

import (
	"bytes"
	"testing"

	"repro/internal/des"
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
	f.Add([]byte("ICKP"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSegment(data)
		if err != nil {
			return // typed rejection is the contract; a panic fails the fuzz
		}
		// Anything accepted must re-encode and re-decode to itself.
		s2, err := DecodeSegment(s.Encode())
		if err != nil {
			t.Fatalf("accepted segment did not re-decode: %v", err)
		}
		if s2.Rank != s.Rank || s2.Seq != s.Seq || s2.Epoch != s.Epoch ||
			s2.Kind != s.Kind || len(s2.Pages) != len(s.Pages) {
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
