package ckpt

import (
	"bytes"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/des"
	"repro/internal/mem"
	"repro/internal/storage"
)

func TestRLERoundTrip(t *testing.T) {
	cases := [][]byte{
		bytes.Repeat([]byte{0}, 4096),
		bytes.Repeat([]byte{0xAB}, 4096),
		append(bytes.Repeat([]byte{1}, 2000), bytes.Repeat([]byte{2}, 2096)...),
	}
	for i, src := range cases {
		c := rleCompress(src)
		if c == nil {
			t.Fatalf("case %d: compressible data not compressed", i)
		}
		if len(c) >= len(src) {
			t.Fatalf("case %d: no shrink (%d >= %d)", i, len(c), len(src))
		}
		got, err := rleDecompress(c, len(src))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !bytes.Equal(got, src) {
			t.Fatalf("case %d: round trip mismatch", i)
		}
	}
}

func TestRLEIncompressibleReturnsNil(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	src := make([]byte, 4096)
	for i := range src {
		src[i] = byte(rng.IntN(256))
	}
	if rleCompress(src) != nil {
		t.Fatal("random data reported as compressible")
	}
}

func TestRLEDecompressRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		{0x00},                   // truncated header
		{0x00, 0x10, 0x00},       // run without value
		{0x01, 0x10, 0x00, 1, 2}, // literal shorter than declared
		{0x07, 0x01, 0x00, 0x00}, // bad opcode
		{0x00, 0xFF, 0xFF, 0x05}, // output overruns page
	}
	for i, c := range cases {
		if _, err := rleDecompress(c, 64); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
	// Correct stream but wrong final size.
	if _, err := rleDecompress([]byte{0x00, 0x10, 0x00, 0xAA}, 64); err == nil {
		t.Error("short output accepted")
	}
}

// Property: compress/decompress is the identity whenever compression
// succeeds.
func TestPropertyRLERoundTrip(t *testing.T) {
	f := func(seed uint64, runBias uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 91))
		src := make([]byte, 1024)
		i := 0
		for i < len(src) {
			if rng.IntN(int(runBias%8)+2) != 0 {
				// run
				v := byte(rng.IntN(4))
				n := min(rng.IntN(200)+1, len(src)-i)
				for k := 0; k < n; k++ {
					src[i+k] = v
				}
				i += n
			} else {
				src[i] = byte(rng.IntN(256))
				i++
			}
		}
		c := rleCompress(src)
		if c == nil {
			return true // incompressible is a valid outcome
		}
		got, err := rleDecompress(c, len(src))
		return err == nil && bytes.Equal(got, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPageHash(t *testing.T) {
	a := pageHash(bytes.Repeat([]byte{1}, 64), 64)
	b := pageHash(bytes.Repeat([]byte{1}, 64), 64)
	c := pageHash(bytes.Repeat([]byte{2}, 64), 64)
	if a != b || a == c {
		t.Fatal("hash determinism/discrimination")
	}
	// nil page hashes like an explicit zero page.
	if pageHash(nil, 64) != pageHash(make([]byte, 64), 64) {
		t.Fatal("nil page hash differs from zero page hash")
	}
}

func TestCompressedSegmentRoundTrip(t *testing.T) {
	seg := &Segment{
		Rank: 0, Seq: 1, Kind: Incremental, PageSize: 4096,
		Pages: []PageRecord{
			{Addr: 0x1000, Data: bytes.Repeat([]byte{0x55}, 4096)}, // compressible
			{Addr: 0x2000, Data: nil},                              // zero page
		},
	}
	// Add an incompressible page.
	rng := rand.New(rand.NewPCG(3, 4))
	raw := make([]byte, 4096)
	for i := range raw {
		raw[i] = byte(rng.IntN(256))
	}
	seg.Pages = append(seg.Pages, PageRecord{Addr: 0x3000, Data: raw})

	enc, payload := seg.encode(nil, true)
	if payload >= 2*4096 {
		t.Fatalf("payload %d did not shrink", payload)
	}
	rawEnc := seg.Encode()
	if len(enc) >= len(rawEnc) {
		t.Fatalf("compressed encoding %d >= raw %d", len(enc), len(rawEnc))
	}
	dec, err := DecodeSegment(enc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seg.Pages {
		if !bytes.Equal(dec.Pages[i].Data, seg.Pages[i].Data) {
			t.Fatalf("page %d mismatch after compressed round trip", i)
		}
	}
}

func TestCheckpointerCompression(t *testing.T) {
	eng := des.NewEngine()
	sp := mem.NewAddressSpace(mem.Config{PageSize: 4096})
	store := storage.NewMemStore()
	sink := storage.Model{Name: "s", Bandwidth: 4096} // 1 raw page per second
	c, err := NewCheckpointer(eng, sp, Options{Store: store, Sink: sink, Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	r, _ := sp.Mmap(8 * 4096)
	sp.Write(r.Start(), bytes.Repeat([]byte{7}, 8*4096)) // highly compressible
	c.Start()
	res, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if res.Pages != 8 || res.PageBytes != 8*4096 {
		t.Fatalf("pages: %+v", res)
	}
	if res.PayloadBytes >= res.PageBytes/10 {
		t.Fatalf("payload %d barely compressed", res.PayloadBytes)
	}
	// Sink time charged on the compressed volume: far below 8 s.
	if res.Duration >= des.Second {
		t.Fatalf("duration %v not reduced by compression", res.Duration)
	}
	// Restore still exact.
	fresh, _, err := replayChain(store, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 8*4096)
	fresh.Read(r.Start(), got)
	if !bytes.Equal(got, bytes.Repeat([]byte{7}, 8*4096)) {
		t.Fatal("compressed restore mismatch")
	}
}

func TestCheckpointerDedup(t *testing.T) {
	eng := des.NewEngine()
	sp := mem.NewAddressSpace(mem.Config{PageSize: 4096})
	store := storage.NewMemStore()
	c, err := NewCheckpointer(eng, sp, Options{Store: store, DedupUnchanged: true})
	if err != nil {
		t.Fatal(err)
	}
	r, _ := sp.Mmap(4 * 4096)
	sp.Write(r.Start(), bytes.Repeat([]byte{1}, 4*4096))
	c.Start()
	c.Checkpoint() // full: hashes recorded

	// Rewrite page 0 with IDENTICAL content, page 1 with new content.
	sp.Write(r.Start(), bytes.Repeat([]byte{1}, 4096))
	sp.Write(r.Start()+4096, bytes.Repeat([]byte{2}, 4096))
	res, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if res.Pages != 1 {
		t.Fatalf("delta pages = %d, want 1 (unchanged page not deduped)", res.Pages)
	}
	if res.DedupSkipped != 1 {
		t.Fatalf("DedupSkipped = %d", res.DedupSkipped)
	}
	// Restore correctness with a deduped chain.
	sp.Write(r.Start()+2*4096, bytes.Repeat([]byte{3}, 4096))
	res3, _ := c.Checkpoint()
	want := make([]byte, 4*4096)
	sp.Read(r.Start(), want)
	fresh, _, err := replayChain(store, 0, res3.Seq, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4*4096)
	fresh.Read(r.Start(), got)
	if !bytes.Equal(got, want) {
		t.Fatal("deduped chain restore mismatch")
	}
	if c.Stats().DedupSkippedPages != 1 {
		t.Fatalf("stats dedup = %d", c.Stats().DedupSkippedPages)
	}
}

func TestDedupRequiresBackedSpace(t *testing.T) {
	eng := des.NewEngine()
	phantom := mem.NewAddressSpace(mem.Config{PageSize: 4096, Phantom: true})
	if _, err := NewCheckpointer(eng, phantom, Options{Store: storage.NewMemStore(), DedupUnchanged: true}); err == nil {
		t.Fatal("dedup on phantom space accepted")
	}
	if _, err := NewCheckpointer(eng, phantom, Options{Store: storage.NewMemStore(), Compress: true}); err == nil {
		t.Fatal("compression on phantom space accepted")
	}
}

// Property: with dedup and compression on, random write/checkpoint
// interleavings still restore to the exact trigger-time state.
func TestPropertyDedupCompressRestoreIdentity(t *testing.T) {
	f := func(seed uint64, nOps uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 101))
		eng := des.NewEngine()
		sp := mem.NewAddressSpace(mem.Config{PageSize: 512})
		store := storage.NewMemStore()
		c, _ := NewCheckpointer(eng, sp, Options{
			Store: store, FullEvery: 4, Compress: true, DedupUnchanged: true,
		})
		const pages = 16
		r, _ := sp.Mmap(pages * 512)
		c.Start()
		var lastSeq uint64
		var snapshot []byte
		did := false
		for i := 0; i < int(nOps%25)+2; i++ {
			if rng.IntN(3) == 0 {
				res, err := c.Checkpoint()
				if err != nil {
					return false
				}
				lastSeq = res.Seq
				snapshot = make([]byte, pages*512)
				sp.Read(r.Start(), snapshot)
				did = true
			} else {
				off := uint64(rng.IntN(pages)) * 512
				// Low-entropy values make dedup hits likely.
				val := byte(rng.IntN(3))
				sp.Write(r.Start()+off, bytes.Repeat([]byte{val}, 512))
			}
		}
		if !did {
			return true
		}
		fresh, _, err := replayChain(store, 0, lastSeq, nil)
		if err != nil {
			return false
		}
		got := make([]byte, pages*512)
		fresh.Read(r.Start(), got)
		return bytes.Equal(got, snapshot)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRLECompressPage(b *testing.B) {
	src := append(bytes.Repeat([]byte{0}, 8192), bytes.Repeat([]byte{3}, 8192)...)
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		if rleCompress(src) == nil {
			b.Fatal("not compressed")
		}
	}
}
