package ckpt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/des"
	"repro/internal/mem"
	"repro/internal/storage"
)

// oracleRuns coalesces a content-free segment's Pages, then its non-empty
// Runs, into page runs: a record extends the last run when it starts at
// the last run's start plus its pages.
func oracleRuns(s *Segment) []PageRun {
	var runs []PageRun
	add := func(addr, n uint64) {
		if last := len(runs) - 1; last >= 0 && runs[last].Addr+runs[last].Pages*s.PageSize == addr {
			runs[last].Pages += n
			return
		}
		runs = append(runs, PageRun{Addr: addr, Pages: n})
	}
	for _, p := range s.Pages {
		add(p.Addr, 1)
	}
	for _, r := range s.Runs {
		if r.Pages > 0 {
			add(r.Addr, r.Pages)
		}
	}
	return runs
}

// oracleEncode is the materialise-then-encode serialiser Checkpoint used
// before it streamed: a bytes.Buffer fed from a []PageRecord (content-free:
// the page runs oracleRuns makes of it). It is kept as the reference the
// streaming writer's bytes are compared against.
func oracleEncode(s *Segment, compress bool) ([]byte, uint64) {
	var payload uint64
	var buf bytes.Buffer
	buf.WriteString(segmentMagic)
	le := binary.LittleEndian
	var scratch [8]byte
	w32 := func(v uint32) { le.PutUint32(scratch[:4], v); buf.Write(scratch[:4]) }
	w64 := func(v uint64) { le.PutUint64(scratch[:8], v); buf.Write(scratch[:8]) }
	w32(segmentVersion)
	w32(uint32(s.Rank))
	w64(s.Seq)
	w64(s.Epoch)
	buf.WriteByte(byte(s.Kind))
	if s.ContentFree {
		buf.WriteByte(1)
	} else {
		buf.WriteByte(0)
	}
	w64(s.PageSize)
	w64(uint64(s.TakenAt))
	w32(uint32(len(s.Regions)))
	for _, r := range s.Regions {
		w64(r.Start)
		w64(r.Size)
		buf.WriteByte(byte(r.Kind))
	}
	if s.ContentFree {
		runs := oracleRuns(s)
		w64(uint64(len(runs)))
		for _, r := range runs {
			w64(r.Addr)
			w64(r.Pages)
		}
		return buf.Bytes(), 0
	}
	w64(uint64(len(s.Pages)))
	for _, p := range s.Pages {
		w64(p.Addr)
		switch {
		case p.Data == nil:
			buf.WriteByte(pageZero)
		case compress:
			if c := rleCompress(p.Data); c != nil {
				buf.WriteByte(pageRLE)
				w32(uint32(len(c)))
				buf.Write(c)
				payload += uint64(len(c))
				continue
			}
			fallthrough
		default:
			buf.WriteByte(pageHasData)
			buf.Write(p.Data)
			payload += uint64(len(p.Data))
		}
	}
	return buf.Bytes(), payload
}

// oracleCapture materialises the segment the next Checkpoint must
// produce — regions in address order, page data copied out — without
// disturbing the checkpointer (dedup hashes are read, not updated).
func oracleCapture(c *Checkpointer) (seg *Segment, skipped uint64) {
	kind := Incremental
	epoch := c.epoch
	if !c.took || (c.opts.FullEvery > 0 && (c.seq-c.opts.StartSeq)%uint64(c.opts.FullEvery) == 0) {
		kind, epoch = Full, c.seq
	}
	seg = &Segment{
		Rank: c.opts.Rank, Seq: c.seq, Epoch: epoch, Kind: kind,
		ContentFree: c.space.Phantom(), PageSize: c.space.PageSize(),
		TakenAt: c.eng.Now(), Regions: c.regionTable(nil, c.space.Regions()),
		Pages: []PageRecord{},
	}
	for _, r := range c.space.Regions() {
		if !c.log.Watches(r) {
			continue
		}
		for idx := uint64(0); idx < r.Pages(); idx++ {
			if kind == Incremental && (c.log.Pages(r) == nil || c.log.Pages(r).Word(idx/64)&(1<<(idx%64)) == 0) {
				continue
			}
			rec := PageRecord{Addr: r.PageAddr(idx)}
			if !seg.ContentFree {
				if pd := r.PeekPage(idx); pd != nil {
					rec.Data = append([]byte(nil), pd...)
				}
				if c.hashes != nil {
					prev, seen := c.hashes[rec.Addr]
					if kind == Incremental && seen && prev == pageHash(rec.Data, seg.PageSize) {
						skipped++
						continue
					}
				}
			}
			seg.Pages = append(seg.Pages, rec)
		}
	}
	return seg, skipped
}

// TestStreamedCaptureMatchesOracle drives full and incremental captures
// of phantom, raw, compressed and deduplicated spaces with several dirty
// regions at once, and checks that the bytes Checkpoint streams into the
// store are exactly what materialising the segment and running the old
// encoder over it produces, and that they decode back to that segment.
func TestStreamedCaptureMatchesOracle(t *testing.T) {
	cases := []struct {
		name    string
		phantom bool
		opts    Options
	}{
		{"phantom", true, Options{}},
		{"raw", false, Options{}},
		{"compress", false, Options{Compress: true}},
		{"dedup", false, Options{DedupUnchanged: true}},
		{"compress+dedup", false, Options{Compress: true, DedupUnchanged: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(11, uint64(len(tc.name))))
			eng := des.NewEngine()
			sp := mem.NewAddressSpace(mem.Config{PageSize: pageSize, Phantom: tc.phantom})
			store := storage.NewMemStore()
			opts := tc.opts
			opts.Rank, opts.Store, opts.FullEvery, opts.TrackCow = 2, store, 4, true
			c, err := NewCheckpointer(eng, sp, opts)
			if err != nil {
				t.Fatal(err)
			}
			regions := []*mem.Region{sp.MapData(3 * pageSize)}
			for i := 0; i < 5; i++ {
				r, err := sp.Mmap(uint64(4+i) * pageSize)
				if err != nil {
					t.Fatal(err)
				}
				regions = append(regions, r)
			}
			c.Start()
			dirty := func(r *mem.Region) {
				idx := rng.Uint64N(r.Pages())
				switch {
				case tc.phantom:
					sp.WriteRange(r.PageAddr(idx), pageSize)
				case rng.IntN(3) == 0: // constant fill: compresses, and repeats for dedup
					sp.Write(r.PageAddr(idx), bytes.Repeat([]byte{7}, pageSize))
				default:
					page := make([]byte, pageSize)
					for i := range page {
						page[i] = byte(rng.Uint32())
					}
					sp.Write(r.PageAddr(idx), page)
				}
			}
			var skippedTotal, zeroPages, shrunk, multiRun uint64
			for round := 0; round < 10; round++ {
				eng.Schedule(eng.Now()+des.Second, func() {})
				eng.Run(des.MaxTime)
				for _, r := range regions {
					for n := rng.IntN(4); n > 0 && sp.Find(r.Start()) == r; n-- {
						dirty(r)
					}
				}
				if round == 6 { // a dirty region unmapped before its delta
					if err := sp.Munmap(regions[3]); err != nil {
						t.Fatal(err)
					}
				}
				want, skipped := oracleCapture(c)
				wantEnc, wantPayload := oracleEncode(want, opts.Compress)
				res, err := c.Checkpoint()
				if err != nil {
					t.Fatal(err)
				}
				got, err := store.Get(SegmentKey(2, want.Seq))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, wantEnc) {
					t.Fatalf("round %d (%s): streamed %d bytes differ from the oracle's %d", round, want.Kind, len(got), len(wantEnc))
				}
				pageBytes := uint64(len(want.Pages)) * want.PageSize
				if !opts.Compress {
					wantPayload = pageBytes
				}
				wantRes := Result{
					Seq: want.Seq, Epoch: want.Epoch, Kind: want.Kind,
					Pages: uint64(len(want.Pages)), Bytes: uint64(len(wantEnc)),
					PageBytes: pageBytes, PayloadBytes: wantPayload, DedupSkipped: skipped,
					Duration: res.Duration, ExcludedPages: res.ExcludedPages,
				}
				if res != wantRes {
					t.Fatalf("round %d: result %+v, want %+v", round, res, wantRes)
				}
				dec, err := DecodeSegment(got)
				if err != nil {
					t.Fatal(err)
				}
				if want.ContentFree { // decoded as runs, never pages
					want.Pages, want.Runs = nil, oracleRuns(want)
				}
				if !reflect.DeepEqual(dec, want) {
					t.Fatalf("round %d: decoded segment differs from the captured one", round)
				}
				skippedTotal += skipped
				if tc.phantom && len(want.Runs) > 1 {
					multiRun++
				}
				for _, p := range want.Pages {
					if p.Data == nil && !tc.phantom {
						zeroPages++
					}
				}
				if res.PayloadBytes < res.PageBytes {
					shrunk++
				}
			}
			// The run must have exercised what its case is named for.
			if opts.DedupUnchanged && skippedTotal == 0 {
				t.Error("no page was ever elided by dedup")
			}
			if opts.Compress && shrunk == 0 {
				t.Error("no segment was ever shrunk by RLE")
			}
			if !tc.phantom && zeroPages == 0 {
				t.Error("no never-written page was ever captured")
			}
			if tc.phantom && multiRun == 0 {
				t.Error("no content-free segment ever held more than one page run")
			}
		})
	}
}

// TestEncodeMatchesOracle checks the materialised-segment entry points
// (Encode, and AppendEncode into a caller's buffer) against the same
// oracle — including records a capture never produces (short data,
// content-free records that carry data, content-free pages given both
// as records and as runs, empty runs among them) — and that the buffer
// Encode allocates is exactly the segment.
func TestEncodeMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 9))
	var reused []byte // AppendEncode's buffer, dirty with the previous segment
	for i := 0; i < 200; i++ {
		seg := &Segment{
			Rank: rng.IntN(100), Seq: rng.Uint64(), Epoch: rng.Uint64(), Kind: Kind(rng.IntN(2)),
			ContentFree: rng.IntN(4) == 0, PageSize: 512, TakenAt: des.Time(rng.Int64()),
		}
		for n := rng.IntN(4); n > 0; n-- {
			seg.Regions = append(seg.Regions, RegionInfo{Start: rng.Uint64(), Size: rng.Uint64(), Kind: mem.Kind(rng.IntN(5))})
		}
		for n := rng.IntN(30); n > 0; n-- {
			p := PageRecord{Addr: rng.Uint64()}
			switch rng.IntN(4) {
			case 0: // zero page
			case 1:
				p.Data = bytes.Repeat([]byte{byte(n)}, 512)
			case 2:
				p.Data = make([]byte, rng.IntN(600))
				for j := range p.Data {
					p.Data[j] = byte(rng.Uint32())
				}
			default:
				p.Data = make([]byte, 512)
				for j := range p.Data {
					p.Data[j] = byte(rng.Uint32())
				}
			}
			seg.Pages = append(seg.Pages, p)
		}
		for n := rng.IntN(6); seg.ContentFree && n > 0; n-- {
			// Near the last record or run, so some pages extend it.
			addr := rng.Uint64()
			if last := len(seg.Pages) - 1; last >= 0 && rng.IntN(2) == 0 {
				addr = seg.Pages[last].Addr + uint64(rng.IntN(3))*seg.PageSize
			}
			if last := len(seg.Runs) - 1; last >= 0 && rng.IntN(2) == 0 {
				addr = seg.Runs[last].Addr + seg.Runs[last].Pages*seg.PageSize
			}
			seg.Runs = append(seg.Runs, PageRun{Addr: addr, Pages: rng.Uint64N(4)})
		}
		want, _ := oracleEncode(seg, false)
		if got := seg.Encode(); !bytes.Equal(got, want) {
			t.Fatalf("segment %d: Encode differs from the oracle", i)
		} else if cap(got) != len(got) {
			t.Fatalf("segment %d: encode reserved %d bytes for %d", i, cap(got), len(got))
		}
		// The same bytes appended to a reused, dirty buffer — in place
		// when its capacity suffices — and behind a prefix left intact.
		spare, before := cap(reused), reused[:cap(reused)]
		reused = seg.AppendEncode(reused[:0])
		if !bytes.Equal(reused, want) {
			t.Fatalf("segment %d: AppendEncode into a dirty buffer differs from the oracle", i)
		} else if spare >= len(want) && &reused[0] != &before[0] {
			t.Fatalf("segment %d: AppendEncode reallocated with %d bytes spare for %d", i, spare, len(want))
		}
		if got := seg.AppendEncode([]byte("prefix")); !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Fatalf("segment %d: AppendEncode behind a prefix differs from the oracle", i)
		}
		want, wantPayload := oracleEncode(seg, true)
		got, payload := seg.encode(nil, true)
		if !bytes.Equal(got, want) || payload != wantPayload {
			t.Fatalf("segment %d: compressed encode differs from the oracle", i)
		}
	}
}

// TestDecodedPagesAliasOnlyTheirBuffer: DecodeSegment aliases page data
// into the buffer it was handed, capacity-clipped, so appending to a
// decoded page cannot run into its neighbour. The buffer is the caller's
// own encoding, not a store's Get result, which is read-only.
func TestDecodedPagesAliasOnlyTheirBuffer(t *testing.T) {
	seg := &Segment{PageSize: 8, Pages: []PageRecord{
		{Addr: 0, Data: []byte("AAAAAAAA")},
		{Addr: 8, Data: []byte("BBBBBBBB")},
	}}
	dec, err := DecodeSegment(seg.Encode())
	if err != nil {
		t.Fatal(err)
	}
	_ = append(dec.Pages[0].Data, "overflow!"...)
	if string(dec.Pages[1].Data) != "BBBBBBBB" {
		t.Fatalf("append to page 0 ran into page 1: %q", dec.Pages[1].Data)
	}
}

// discardStore accepts every Put and keeps nothing, so allocation counts
// measure the checkpointer alone.
type discardStore struct{ storage.Store }

func (discardStore) Put(string, []byte) error { return nil }

// TestPhantomCheckpointAllocsIndependentOfPages: a content-free capture
// streams page runs straight from the bitsets into one buffer, and its
// drain sets and scratch slices are reused, so a warm checkpoint into a
// borrowing store allocates the segment's key and nothing else, and
// half a region dirtied in one sweep is one run whatever the page count.
func TestPhantomCheckpointAllocsIndependentOfPages(t *testing.T) {
	capture := func(pages uint64, fullEvery int) (allocs float64, bytes uint64) {
		eng := des.NewEngine()
		sp := mem.NewAddressSpace(mem.Config{PageSize: pageSize, Phantom: true})
		c, err := NewCheckpointer(eng, sp, Options{Store: discardStore{}, FullEvery: fullEvery, TrackCow: true})
		if err != nil {
			t.Fatal(err)
		}
		r, _ := sp.Mmap(pages * pageSize)
		c.Start()
		allocs = testing.AllocsPerRun(20, func() {
			sp.WriteRange(r.Start(), pages/2*pageSize)
			res, err := c.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			bytes = res.Bytes
		})
		return allocs, bytes
	}
	for _, mode := range []struct {
		name      string
		fullEvery int
	}{{"full", 1}, {"incremental", 0}} {
		small, smallBytes := capture(64, mode.fullEvery)
		large, largeBytes := capture(64<<10, mode.fullEvery)
		if small != 1 || large != 1 {
			t.Errorf("%s: %v allocs per checkpoint of 64 pages, %v of 64 Ki pages; want 1, the key", mode.name, small, large)
		}
		if smallBytes != largeBytes {
			t.Errorf("%s: a capture of 64 pages encodes to %d bytes, of 64 Ki pages to %d; want equal (one run each)", mode.name, smallBytes, largeBytes)
		}
	}
}

// Sage-1000MB's per-rank shape in the paper's configuration: a 954.6 MB
// footprint in 16 KiB pages, about 15 % of it dirtied per timeslice.
const (
	sagePageSize = 16 << 10
	sagePages    = 61094
	sageDirty    = sagePages * 15 / 100
)

func benchPhantom(b *testing.B, fullEvery int) {
	eng := des.NewEngine()
	sp := mem.NewAddressSpace(mem.Config{PageSize: sagePageSize, Phantom: true})
	c, _ := NewCheckpointer(eng, sp, Options{Store: storage.NewMemStore(), FullEvery: fullEvery, TrackCow: true})
	r, _ := sp.Mmap(sagePages * sagePageSize)
	c.Start()
	c.Checkpoint()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.WriteRange(r.Start(), sageDirty*sagePageSize)
		res, err := c.Checkpoint()
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(res.PageBytes)) // the modelled page volume, not the run records
	}
}

func BenchmarkCheckpointPhantomFull(b *testing.B)        { benchPhantom(b, 1) }
func BenchmarkCheckpointPhantomIncremental(b *testing.B) { benchPhantom(b, 0) }

// BenchmarkCheckpointBacked captures the supervised stencil's shape: a
// 1 MiB backed heap of 4 KiB pages, half of it rewritten per line.
func BenchmarkCheckpointBacked(b *testing.B) {
	eng := des.NewEngine()
	sp := mem.NewAddressSpace(mem.Config{PageSize: pageSize})
	c, _ := NewCheckpointer(eng, sp, Options{Store: storage.NewMemStore(), FullEvery: 8})
	r, _ := sp.Mmap(256 * pageSize)
	row := bytes.Repeat([]byte{0xA5}, 128*pageSize)
	c.Start()
	b.ReportAllocs()
	b.SetBytes(int64(len(row)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row[0] = byte(i)
		if err := sp.Write(r.Start()+uint64(i%2)*uint64(len(row)), row); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Checkpoint(); err != nil {
			b.Fatal(fmt.Errorf("checkpoint %d: %w", i, err))
		}
	}
}

// handoffStore records how each segment reached the store and how much
// unused capacity came with it.
type handoffStore struct {
	storage.Store
	owned map[string]bool
	slack map[string]int
}

func (s *handoffStore) arrive(key string, data []byte, owned bool) {
	s.owned[key], s.slack[key] = owned, cap(data)-len(data)
}

func (s *handoffStore) Put(key string, data []byte) error {
	s.arrive(key, data, false)
	return s.Store.Put(key, data)
}

func (s *handoffStore) PutOwned(key string, data []byte) error {
	s.arrive(key, data, true)
	return storage.PutOwned(s.Store, key, data)
}

// TestCheckpointGivesExactSegmentsAway: Checkpoint drops its encode
// buffer after the put, so it gives the buffer away — but only when the
// writer's size bound was exact, leaving exactly the envelope's room
// (storage.SealRoom) spare. A segment with elided zero pages (or RLE
// pages) is shorter than its bound; a keeping store would retain the
// slack for as long as the line lives, so those stay lent.
func TestCheckpointGivesExactSegmentsAway(t *testing.T) {
	for _, compress := range []bool{false, true} {
		store := &handoffStore{Store: storage.NewMemStore(), owned: map[string]bool{}, slack: map[string]int{}}
		sp := mem.NewAddressSpace(mem.Config{PageSize: pageSize})
		r, _ := sp.Mmap(8 * pageSize)
		c, err := NewCheckpointer(des.NewEngine(), sp, Options{Store: store, Compress: compress})
		if err != nil {
			t.Fatal(err)
		}
		c.Start()
		noisy := make([]byte, 8*pageSize) // incompressible, no zero page
		for i := range noisy {
			noisy[i] = byte(i*7 + i>>8 + 1)
		}
		sp.Write(r.Start(), noisy[:4*pageSize]) // seq 0: full, four pages never touched
		c.Checkpoint()
		sp.Write(r.Start(), noisy) // seq 1: eight dirty pages, all data
		c.Checkpoint()
		sp.Write(r.Start(), bytes.Repeat([]byte{9}, pageSize)) // seq 2: one constant page
		c.Checkpoint()

		// Under compression the bound reserves an RLE header per page,
		// so even incompressible pages leave slack.
		wantOwned := map[uint64]bool{0: false, 1: !compress, 2: !compress}
		for seq, want := range wantOwned {
			key := SegmentKey(0, seq)
			owned, ok := store.owned[key]
			if !ok {
				t.Fatalf("compress=%v: line %d never reached the store", compress, seq)
			}
			if owned != want {
				t.Errorf("compress=%v line %d: given away = %v, want %v (slack %d bytes)", compress, seq, owned, want, store.slack[key])
			}
			if owned && store.slack[key] != storage.SealRoom {
				t.Errorf("compress=%v line %d: gave away a buffer with %d bytes of slack, want the %d-byte envelope room", compress, seq, store.slack[key], storage.SealRoom)
			}
			if !owned && store.slack[key] <= storage.SealRoom {
				t.Errorf("compress=%v line %d: an exact buffer was lent", compress, seq)
			}
		}
		if _, err := RestoreAll(store, 1, 2); err != nil {
			t.Fatalf("compress=%v: restore through the handed-off segments: %v", compress, err)
		}
	}
}

// lastPutStore is a borrowing store — no storage.OwnedPutter — that
// copies each Put into one buffer of its own, keeping the last segment
// without allocating once that buffer is large enough.
type lastPutStore struct {
	storage.Store
	last []byte
}

func (s *lastPutStore) Put(_ string, data []byte) error {
	s.last = append(s.last[:0], data...)
	return nil
}

// TestBorrowingStoreIsLentOneBuffer: a store that only borrows is lent
// the checkpointer's encode buffer, and every later capture encodes into
// that same buffer, so a warm raw capture allocates no segment buffer —
// only its key (RLE allocates per page; that is not the segment). The
// bytes it lends are the ones a MemStore-backed twin keeps, full and
// incremental, raw and compressed.
func TestBorrowingStoreIsLentOneBuffer(t *testing.T) {
	for _, compress := range []bool{false, true} {
		type twin struct {
			sp *mem.AddressSpace
			r  *mem.Region
			c  *Checkpointer
		}
		build := func(store storage.Store) twin {
			sp := mem.NewAddressSpace(mem.Config{PageSize: pageSize})
			r, _ := sp.Mmap(64 * pageSize)
			c, err := NewCheckpointer(des.NewEngine(), sp, Options{Store: store, FullEvery: 4, Compress: compress})
			if err != nil {
				t.Fatal(err)
			}
			c.Start()
			return twin{sp, r, c}
		}
		row := make([]byte, 16*pageSize)
		step := func(tw twin, i int) {
			for j := range row {
				row[j] = byte(i*31 + j*7 + j>>9)
			}
			clear(row[:pageSize]) // a zero page, so the segment comes out short of its bound
			if err := tw.sp.Write(tw.r.Start()+uint64(i%4)*uint64(len(row)), row); err != nil {
				t.Fatal(err)
			}
			if _, err := tw.c.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}

		lent, kept := &lastPutStore{}, storage.NewMemStore()
		a, b := build(lent), build(kept)
		for i := 0; i < 9; i++ {
			step(a, i)
			step(b, i)
			want, err := kept.Get(SegmentKey(0, uint64(i)))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(lent.last, want) {
				t.Fatalf("compress=%v line %d: the borrowing store was lent other bytes than the MemStore keeps", compress, i)
			}
		}

		if compress {
			continue
		}
		i := 9
		allocs := testing.AllocsPerRun(20, func() {
			step(a, i)
			i++
		})
		if allocs != 1 {
			t.Errorf("a warm capture into a borrowing store allocates %v, want 1 (its key; the segment reuses the lent buffer)", allocs)
		}
	}
}
