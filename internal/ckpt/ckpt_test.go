package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/bits"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/des"
	"repro/internal/mem"
	"repro/internal/storage"
)

const pageSize = 4096

func TestKindString(t *testing.T) {
	if Full.String() != "full" || Incremental.String() != "incremental" {
		t.Fatal("Kind strings")
	}
}

func TestSegmentRoundTrip(t *testing.T) {
	seg := &Segment{
		Rank:     3,
		Seq:      7,
		Epoch:    5,
		Kind:     Incremental,
		PageSize: pageSize,
		TakenAt:  42 * des.Second,
		Regions: []RegionInfo{
			{Start: 0x1000, Size: 0x4000, Kind: mem.Data},
			{Start: 0x10000, Size: 0x8000, Kind: mem.Mmap},
		},
		Pages: []PageRecord{
			{Addr: 0x1000, Data: bytes.Repeat([]byte{0xAB}, pageSize)},
			{Addr: 0x2000, Data: nil}, // zero page, elided
		},
	}
	dec, err := DecodeSegment(seg.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if dec.Rank != 3 || dec.Seq != 7 || dec.Epoch != 5 || dec.Kind != Incremental {
		t.Fatalf("header mismatch: %+v", dec)
	}
	if dec.TakenAt != 42*des.Second || dec.PageSize != pageSize {
		t.Fatalf("header mismatch: %+v", dec)
	}
	if len(dec.Regions) != 2 || dec.Regions[1].Kind != mem.Mmap {
		t.Fatalf("regions: %+v", dec.Regions)
	}
	if len(dec.Pages) != 2 || !bytes.Equal(dec.Pages[0].Data, seg.Pages[0].Data) {
		t.Fatal("pages mismatch")
	}
	if dec.Pages[1].Data != nil {
		t.Fatal("zero page not elided")
	}
}

// A content-free segment's pages are page runs on the wire: consecutive
// records coalesce, a gap starts a run, and the decoded runs re-encode
// to the same bytes.
func TestSegmentContentFreeRoundTrip(t *testing.T) {
	seg := &Segment{
		Rank: 1, Seq: 0, Kind: Full, ContentFree: true, PageSize: pageSize,
		Pages: []PageRecord{{Addr: 0x1000}, {Addr: 0x2000}, {Addr: 0x5000}},
	}
	enc := seg.Encode()
	dec, err := DecodeSegment(enc)
	if err != nil {
		t.Fatal(err)
	}
	want := []PageRun{{Addr: 0x1000, Pages: 2}, {Addr: 0x5000, Pages: 1}}
	if !dec.ContentFree || len(dec.Pages) != 0 || !slices.Equal(dec.Runs, want) || dec.PageTotal() != 3 {
		t.Fatalf("content-free round trip: %+v", dec)
	}
	if !bytes.Equal(dec.Encode(), enc) {
		t.Fatal("decoded runs re-encode to other bytes")
	}
}

// The decoder accepts only canonical page runs, so whatever it accepts
// re-encodes byte for byte, and it never sizes anything by the pages a
// run claims.
func TestDecodeRejectsNonCanonicalRuns(t *testing.T) {
	const top = ^uint64(0) &^ (pageSize - 1) // the highest page's address
	cases := []struct {
		name  string
		runs  []PageRun
		count uint64 // run count written; 0 means len(runs)
	}{
		{"empty run", []PageRun{{Addr: 0x1000, Pages: 0}}, 0},
		{"unaligned", []PageRun{{Addr: 0x1001, Pages: 1}}, 0},
		{"descending", []PageRun{{Addr: 0x8000, Pages: 1}, {Addr: 0x1000, Pages: 1}}, 0},
		{"adjacent", []PageRun{{Addr: 0x1000, Pages: 2}, {Addr: 0x3000, Pages: 1}}, 0},
		{"overlapping", []PageRun{{Addr: 0x1000, Pages: 4}, {Addr: 0x3000, Pages: 4}}, 0},
		{"same start", []PageRun{{Addr: 0x1000, Pages: 1}, {Addr: 0x1000, Pages: 1}}, 0},
		{"count beyond the bytes", []PageRun{{Addr: 0x1000, Pages: 1}}, 2},
		{"huge count", []PageRun{{Addr: 0x1000, Pages: 1}}, 1 << 60},
		{"page total overflows", []PageRun{{Addr: 0, Pages: 1 << 52}}, 0},
		{"run wraps the top", []PageRun{{Addr: top, Pages: 2}}, 0},
		{"run ends at 2^64", []PageRun{{Addr: top, Pages: 1}}, 0},
	}
	le := binary.LittleEndian
	for _, tc := range cases {
		// The header of a content-free segment with no records, then the
		// runs exactly as given: Encode would coalesce them.
		hdr := (&Segment{ContentFree: true, PageSize: pageSize}).Encode()
		count := tc.count
		if count == 0 {
			count = uint64(len(tc.runs))
		}
		le.PutUint64(hdr[len(hdr)-8:], count)
		for _, r := range tc.runs {
			hdr = le.AppendUint64(le.AppendUint64(hdr, r.Addr), r.Pages)
		}
		if seg, err := DecodeSegment(hdr); err == nil {
			t.Errorf("%s: accepted, %d runs", tc.name, len(seg.Runs))
		}
	}
	// The content-free flag is 0 or 1: any other byte would re-encode as 1.
	flag := (&Segment{ContentFree: true, PageSize: pageSize}).Encode()
	flag[4+4+4+8+8+1] = 2
	if _, err := DecodeSegment(flag); err == nil {
		t.Error("content-free flag 2 accepted")
	}
	// Canonical runs are accepted, however many pages they claim, and
	// the decode allocates the segment and its runs alone.
	ok := (&Segment{ContentFree: true, PageSize: pageSize}).Encode()
	le.PutUint64(ok[len(ok)-8:], 2)
	for _, r := range []PageRun{{Addr: 0x1000, Pages: 2}, {Addr: 0x4000, Pages: 1 << 40}} {
		ok = le.AppendUint64(le.AppendUint64(ok, r.Addr), r.Pages)
	}
	if seg, err := DecodeSegment(ok); err != nil || seg.PageTotal() != 2+1<<40 {
		t.Fatalf("canonical runs: %v", err)
	}
	if allocs := testing.AllocsPerRun(10, func() { DecodeSegment(ok) }); allocs > 2 {
		t.Errorf("decoding two runs of 2^40 pages allocates %v times, want 2 (the segment and its runs)", allocs)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("nope"),
		[]byte("ICKP"),
		append([]byte("ICKP"), 99, 0, 0, 0), // bad version
	}
	for i, c := range cases {
		if _, err := DecodeSegment(c); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
	// Truncations of a valid segment must all fail (not panic).
	seg := &Segment{Rank: 1, PageSize: pageSize, Kind: Full,
		Regions: []RegionInfo{{Start: 0x1000, Size: 0x1000, Kind: mem.Data}},
		Pages:   []PageRecord{{Addr: 0x1000, Data: make([]byte, pageSize)}}}
	enc := seg.Encode()
	for cut := 0; cut < len(enc); cut += 97 {
		if _, err := DecodeSegment(enc[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	if _, err := DecodeSegment(append(enc, 0)); err == nil {
		t.Error("trailing byte accepted")
	}
}

// Property: encode/decode round-trips random segments.
func TestPropertySegmentRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 41))
		seg := &Segment{
			Rank:     rng.IntN(64),
			Seq:      rng.Uint64N(1000),
			Epoch:    rng.Uint64N(100),
			Kind:     Kind(rng.IntN(2)),
			PageSize: 512,
			TakenAt:  des.Time(rng.Int64N(1e12)),
		}
		for i := 0; i < rng.IntN(5); i++ {
			seg.Regions = append(seg.Regions, RegionInfo{
				Start: rng.Uint64N(1<<40) &^ 511,
				Size:  uint64(rng.IntN(100)+1) * 512,
				Kind:  mem.Kind(rng.IntN(4)),
			})
		}
		for i := 0; i < rng.IntN(8); i++ {
			p := PageRecord{Addr: rng.Uint64N(1<<40) &^ 511}
			if rng.IntN(2) == 0 {
				p.Data = make([]byte, 512)
				for j := range p.Data {
					p.Data[j] = byte(rng.IntN(256))
				}
			}
			seg.Pages = append(seg.Pages, p)
		}
		dec, err := DecodeSegment(seg.Encode())
		if err != nil {
			return false
		}
		if dec.Rank != seg.Rank || dec.Seq != seg.Seq || dec.Kind != seg.Kind ||
			len(dec.Regions) != len(seg.Regions) || len(dec.Pages) != len(seg.Pages) {
			return false
		}
		for i := range seg.Pages {
			if dec.Pages[i].Addr != seg.Pages[i].Addr || !bytes.Equal(dec.Pages[i].Data, seg.Pages[i].Data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func newCkpt(t *testing.T) (*des.Engine, *mem.AddressSpace, *Checkpointer, *storage.MemStore) {
	t.Helper()
	eng := des.NewEngine()
	sp := mem.NewAddressSpace(mem.Config{PageSize: pageSize})
	store := storage.NewMemStore()
	c, err := NewCheckpointer(eng, sp, Options{Rank: 0, Store: store, FullEvery: 4, TrackCow: true})
	if err != nil {
		t.Fatal(err)
	}
	return eng, sp, c, store
}

func TestCheckpointerValidation(t *testing.T) {
	eng := des.NewEngine()
	sp := mem.NewAddressSpace(mem.Config{PageSize: pageSize})
	if _, err := NewCheckpointer(eng, sp, Options{}); err == nil {
		t.Fatal("nil store accepted")
	}
	c, _ := NewCheckpointer(eng, sp, Options{Store: storage.NewMemStore()})
	if _, err := c.Checkpoint(); err == nil {
		t.Fatal("checkpoint before Start succeeded")
	}
}

func TestFullThenIncremental(t *testing.T) {
	_, sp, c, _ := newCkpt(t)
	r, _ := sp.Mmap(10 * pageSize)
	sp.Write(r.Start(), []byte("before"))
	c.Start()

	res1, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if res1.Kind != Full || res1.Pages != 10 {
		t.Fatalf("first checkpoint: %+v", res1)
	}
	// Dirty 2 pages, then incremental.
	sp.Write(r.Start()+pageSize, bytes.Repeat([]byte{1}, 2*pageSize))
	res2, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if res2.Kind != Incremental || res2.Pages != 2 {
		t.Fatalf("second checkpoint: %+v", res2)
	}
	// Nothing dirty: empty delta.
	res3, _ := c.Checkpoint()
	if res3.Kind != Incremental || res3.Pages != 0 {
		t.Fatalf("third checkpoint: %+v", res3)
	}
	// FullEvery=4: the fifth (seq 4) is full again.
	c.Checkpoint()
	res5, _ := c.Checkpoint()
	if res5.Kind != Full || res5.Seq != 4 || res5.Epoch != 4 {
		t.Fatalf("fifth checkpoint: %+v", res5)
	}
	st := c.Stats()
	if st.Checkpoints != 5 || st.FullPages != 20 || st.DeltaPages != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestCheckpointDurationModel(t *testing.T) {
	eng := des.NewEngine()
	sp := mem.NewAddressSpace(mem.Config{PageSize: pageSize})
	sink := storage.Model{Name: "x", Bandwidth: float64(pageSize)} // 1 page/s
	c, _ := NewCheckpointer(eng, sp, Options{Store: storage.NewMemStore(), Sink: sink})
	r, _ := sp.Mmap(3 * pageSize)
	_ = r
	c.Start()
	res, _ := c.Checkpoint()
	if res.Duration != 3*des.Second {
		t.Fatalf("duration = %v, want 3s", res.Duration)
	}
}

func TestRestoreRoundTrip(t *testing.T) {
	eng, sp, c, store := newCkpt(t)
	d := sp.MapData(2 * pageSize)
	arena, _ := sp.Mmap(3 * pageSize)
	m, _ := sp.Mmap(4 * pageSize)

	write := func(addr uint64, val byte, n int) {
		sp.Write(addr, bytes.Repeat([]byte{val}, n))
	}
	write(d.Start(), 0xD0, 100)
	write(arena.Start()+pageSize, 0xE0, 2*pageSize)
	write(m.Start(), 0xF0, 300)
	c.Start()
	c.Checkpoint() // seq 0: full

	eng.Schedule(des.Second, func() {
		write(m.Start()+2*pageSize, 0xF1, pageSize)
		write(d.Start()+pageSize, 0xD1, 10)
	})
	eng.Run(des.MaxTime)
	c.Checkpoint() // seq 1: delta

	// Restore into a fresh space and compare every checkpointable byte.
	fresh, _, err := replayChain(store, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sp.Regions() {
		if !r.Kind().Checkpointable() {
			continue
		}
		want := make([]byte, r.Size())
		got := make([]byte, r.Size())
		if err := sp.Read(r.Start(), want); err != nil {
			t.Fatal(err)
		}
		if err := fresh.Read(r.Start(), got); err != nil {
			t.Fatalf("restored space missing %v region: %v", r.Kind(), err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("%v region contents differ after restore", r.Kind())
		}
	}
	// The restored arena keeps its address, size and kind.
	if r := fresh.Find(arena.Start()); r == nil || r.Start() != arena.Start() || r.Size() != 3*pageSize || r.Kind() != mem.Mmap {
		t.Fatal("arena not reconstructed")
	}
}

// A restore of a line the store does not hold names the rank and line
// and keeps the storage tier's typed cause.
func TestRestoreValidation(t *testing.T) {
	_, _, _, store := newCkpt(t)
	_, err := RestoreAll(store, 1, 99)
	var re *RestoreError
	if !errors.As(err, &re) || re.Rank != 0 || re.Seq != 99 || !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("restore of a missing line: %v", err)
	}
}

func TestMemoryExclusionInCheckpoint(t *testing.T) {
	_, sp, c, _ := newCkpt(t)
	keep, _ := sp.Mmap(2 * pageSize)
	c.Start()
	c.Checkpoint() // full baseline
	temp, _ := sp.Mmap(8 * pageSize)
	sp.WriteRange(temp.Start(), 8*pageSize)
	sp.WriteRange(keep.Start(), pageSize)
	sp.Munmap(temp)
	res, _ := c.Checkpoint()
	if res.Pages != 1 {
		t.Fatalf("delta pages = %d, want 1 (exclusion failed)", res.Pages)
	}
	if res.ExcludedPages != 8 {
		t.Fatalf("excluded = %d, want 8", res.ExcludedPages)
	}
}

func TestExcludedRegionNotCaptured(t *testing.T) {
	_, sp, c, _ := newCkpt(t)
	bounce, _ := sp.MapBounce(4 * pageSize)
	c.Start()
	res, _ := c.Checkpoint()
	if res.Pages != 0 {
		t.Fatalf("full checkpoint captured %d pages of excluded region", res.Pages)
	}
	sp.WriteRange(bounce.Start(), 4*pageSize)
	res2, _ := c.Checkpoint()
	if res2.Pages != 0 {
		t.Fatalf("delta captured %d excluded pages", res2.Pages)
	}
}

func TestCowAccounting(t *testing.T) {
	eng := des.NewEngine()
	sp := mem.NewAddressSpace(mem.Config{PageSize: pageSize})
	// Sink slow enough that the drain covers subsequent writes:
	// 10 pages at 1 page/s = 10 s drain.
	sink := storage.Model{Name: "slow", Bandwidth: float64(pageSize)}
	store := storage.NewMemStore()
	c, _ := NewCheckpointer(eng, sp, Options{Store: store, Sink: sink, TrackCow: true})
	r, _ := sp.Mmap(10 * pageSize)
	c.Start()
	sp.WriteRange(r.Start(), 10*pageSize)
	eng.Schedule(des.Second, func() {
		if _, err := c.Checkpoint(); err != nil { // delta of 10 pages, 10s drain
			t.Error(err)
		}
	})
	// Writes during the drain to 3 captured pages → 3 CoW copies.
	eng.Schedule(2*des.Second, func() { sp.WriteRange(r.Start(), 3*pageSize) })
	// Rewriting the same pages again during the drain: no double count
	// (the pre-image is copied once).
	eng.Schedule(3*des.Second, func() {
		c.log.Reset() // re-protect, forcing re-faults
		sp.WriteRange(r.Start(), 3*pageSize)
	})
	// Writes after the drain completes don't count.
	eng.Schedule(20*des.Second, func() { sp.WriteRange(r.Start()+5*pageSize, pageSize) })
	eng.Run(des.MaxTime)
	if got := c.Stats().CowCopyBytes; got != 3*pageSize {
		t.Fatalf("CowCopyBytes = %d, want %d", got, 3*pageSize)
	}
	// The first checkpoint (seq 0) was full; wait — this test's first
	// checkpoint is seq 0 and therefore Full. Its pages: 10.
	if c.Stats().FullPages != 10 {
		t.Fatalf("FullPages = %d", c.Stats().FullPages)
	}
}

func TestHandlerChainingWithSecondConsumer(t *testing.T) {
	// A second dirty log (like a tracker's) stacked over the
	// checkpointer's still sees faults, and both dirty views agree.
	_, sp, c, _ := newCkpt(t)
	r, _ := sp.Mmap(6 * pageSize)
	c.Start()
	c.Checkpoint()
	var seen int
	outer := mem.NewDirtyLog(sp)
	outer.OnFault = func(_ *mem.Region, _, m uint64) { seen += bits.OnesCount64(m) }
	outer.Open()
	sp.WriteRange(r.Start(), 4*pageSize)
	res, _ := c.Checkpoint()
	if seen != 4 || outer.Count() != 4 {
		t.Fatalf("outer log saw %d faults, logged %d pages", seen, outer.Count())
	}
	if res.Pages != 4 {
		t.Fatalf("checkpointer captured %d pages under stacking", res.Pages)
	}
}

func TestCoordinator(t *testing.T) {
	eng := des.NewEngine()
	store := storage.NewMemStore()
	var cps []*Checkpointer
	var spaces []*mem.AddressSpace
	for i := 0; i < 4; i++ {
		sp := mem.NewAddressSpace(mem.Config{PageSize: pageSize})
		sp.Mmap(uint64(i+1) * pageSize)
		c, _ := NewCheckpointer(eng, sp, Options{Rank: i, Store: store})
		c.Start()
		cps = append(cps, c)
		spaces = append(spaces, sp)
	}
	co, err := NewCoordinator(eng, cps)
	if err != nil {
		t.Fatal(err)
	}
	co.StartInterval(des.Second)
	eng.Run(3 * des.Second)
	co.Stop()
	rs := co.Results()
	if len(rs) != 3 {
		t.Fatalf("results = %d", len(rs))
	}
	// First global: full checkpoints of 1+2+3+4 = 10 pages.
	if rs[0].TotalPageBytes != 10*pageSize {
		t.Fatalf("global 0 bytes = %d", rs[0].TotalPageBytes)
	}
	// MaxDuration comes from the largest rank (4 pages on SCSI).
	want := storage.SCSISink().WriteTime(4 * pageSize)
	if rs[0].MaxDuration != want {
		t.Fatalf("MaxDuration = %v, want %v", rs[0].MaxDuration, want)
	}
	if _, err := NewCoordinator(eng, nil); err == nil {
		t.Fatal("empty coordinator accepted")
	}
}

// Property: for random write/checkpoint interleavings, restoring the last
// checkpoint reproduces exactly the state at that checkpoint.
func TestPropertyCheckpointRestoreIdentity(t *testing.T) {
	f := func(seed uint64, nOps uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 51))
		eng := des.NewEngine()
		sp := mem.NewAddressSpace(mem.Config{PageSize: 512})
		store := storage.NewMemStore()
		c, _ := NewCheckpointer(eng, sp, Options{Store: store, FullEvery: 3})
		const pages = 32
		r, _ := sp.Mmap(pages * 512)
		c.Start()
		var lastSeq uint64
		var snapshot []byte
		did := false
		for i := 0; i < int(nOps%30)+2; i++ {
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
				off := uint64(rng.IntN(pages * 512))
				n := uint64(rng.IntN(2048) + 1)
				if off+n > pages*512 {
					n = pages*512 - off
				}
				if n == 0 {
					continue
				}
				data := make([]byte, n)
				for j := range data {
					data[j] = byte(rng.IntN(256))
				}
				if sp.Write(r.Start()+off, data) != nil {
					return false
				}
			}
		}
		if !did {
			return true
		}
		fresh, _, err := replayChain(store, 0, lastSeq)
		if err != nil {
			return false
		}
		got := make([]byte, pages*512)
		if fresh.Read(r.Start(), got) != nil {
			return false
		}
		return bytes.Equal(got, snapshot)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLoadSegmentMissing(t *testing.T) {
	store := storage.NewMemStore()
	if _, _, err := loadSegment(store, 0, 0, new(Segment)); err == nil {
		t.Fatal("missing segment loaded")
	}
	store.Put("rank000/seg000000", []byte("garbage"))
	if _, _, err := loadSegment(store, 0, 0, new(Segment)); err == nil {
		t.Fatal("garbage segment loaded")
	}
}

func BenchmarkIncrementalCheckpoint(b *testing.B) {
	eng := des.NewEngine()
	sp := mem.NewAddressSpace(mem.Config{PageSize: pageSize})
	store := storage.NewMemStore()
	c, _ := NewCheckpointer(eng, sp, Options{Store: store})
	r, _ := sp.Mmap(1024 * pageSize)
	c.Start()
	c.Checkpoint()
	b.SetBytes(64 * pageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.WriteRange(r.Start(), 64*pageSize)
		if _, err := c.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
}
