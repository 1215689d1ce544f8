package ckpt

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/des"
	"repro/internal/mem"
	"repro/internal/storage"
)

func TestParseSegmentKey(t *testing.T) {
	var rank int
	var seq uint64
	if !ParseSegmentKey("rank003/seg000042", &rank, &seq) || rank != 3 || seq != 42 {
		t.Fatalf("parse: %d %d", rank, seq)
	}
	for _, bad := range []string{"", "rank003", "seg000001/rank003", "rankX/seg000001", "rank003/segY", "a/b/c"} {
		if ParseSegmentKey(bad, &rank, &seq) {
			t.Errorf("bad key %q accepted", bad)
		}
	}
}

func TestLatestConsistentSeq(t *testing.T) {
	store := storage.NewMemStore()
	// No segments at all.
	if _, ok, err := LatestConsistentSeq(store, 2); err != nil || ok {
		t.Fatalf("empty store: ok=%v err=%v", ok, err)
	}
	put := func(rank int, seq uint64) {
		seg := &Segment{Rank: rank, Seq: seq, Kind: Full, PageSize: 512}
		key := keyFor(rank, seq)
		store.Put(key, seg.Encode())
	}
	put(0, 0)
	put(0, 1)
	put(1, 0)
	// Rank 1's checkpoint 1 never committed (failure mid-global-ckpt):
	// the consistent line is 0.
	seq, ok, err := LatestConsistentSeq(store, 2)
	if err != nil || !ok || seq != 0 {
		t.Fatalf("seq=%d ok=%v err=%v, want 0 true", seq, ok, err)
	}
	put(1, 1)
	seq, _, _ = LatestConsistentSeq(store, 2)
	if seq != 1 {
		t.Fatalf("seq = %d, want 1", seq)
	}
	// A rank with no segments blocks consistency.
	if _, ok, _ := LatestConsistentSeq(store, 3); ok {
		t.Fatal("missing rank reported consistent")
	}
	// Foreign keys are ignored.
	store.Put("junk/key", []byte("x"))
	if seq, ok, _ := LatestConsistentSeq(store, 2); !ok || seq != 1 {
		t.Fatal("foreign keys disturbed the scan")
	}
	// No ranks hold no line.
	if seq, ok, err := LatestConsistentSeq(store, 0); err != nil || ok {
		t.Fatalf("0 ranks: seq=%d ok=%v err=%v, want no line", seq, ok, err)
	}
	// Sequences need not be dense: the line is the newest one every rank
	// holds, not the smallest of the ranks' newest.
	sparse := storage.NewMemStore()
	for _, k := range []struct {
		rank int
		seq  uint64
	}{{0, 1}, {0, 3}, {1, 1}, {1, 2}} {
		seg := &Segment{Rank: k.rank, Seq: k.seq, Kind: Full, PageSize: 512}
		sparse.Put(keyFor(k.rank, k.seq), seg.Encode())
	}
	if seq, ok, err := LatestConsistentSeq(sparse, 2); err != nil || !ok || seq != 1 {
		t.Fatalf("rank 0 {1,3}, rank 1 {1,2}: seq=%d ok=%v err=%v, want 1 true", seq, ok, err)
	}
}

func keyFor(rank int, seq uint64) string {
	return "rank" + pad(rank, 3) + "/seg" + pad(int(seq), 6)
}

func pad(v, width int) string {
	s := ""
	for d := width - 1; d >= 0; d-- {
		p := 1
		for i := 0; i < d; i++ {
			p *= 10
		}
		s += string(rune('0' + (v/p)%10))
	}
	return s
}

// Multi-rank coordinated checkpoint + failure + RestoreAll: every rank's
// memory must come back exactly as at the last consistent line.
func TestCoordinatedRecoveryEndToEnd(t *testing.T) {
	const ranks = 4
	eng := des.NewEngine()
	store := storage.NewMemStore()
	var spaces []*mem.AddressSpace
	var cps []*Checkpointer
	var regions []*mem.Region
	for i := 0; i < ranks; i++ {
		sp := mem.NewAddressSpace(mem.Config{PageSize: 512})
		r, _ := sp.Mmap(8 * 512)
		sp.Write(r.Start(), bytes.Repeat([]byte{byte(i + 1)}, 8*512))
		c, _ := NewCheckpointer(eng, sp, Options{Rank: i, Store: store})
		c.Start()
		spaces = append(spaces, sp)
		cps = append(cps, c)
		regions = append(regions, r)
	}
	co, _ := NewCoordinator(eng, cps)
	if _, err := co.GlobalCheckpoint(); err != nil {
		t.Fatal(err)
	}
	// Each rank makes progress, then a second global checkpoint.
	for i, sp := range spaces {
		sp.Write(regions[i].Start()+512, bytes.Repeat([]byte{0xF0 | byte(i)}, 512))
	}
	if _, err := co.GlobalCheckpoint(); err != nil {
		t.Fatal(err)
	}
	// Snapshot expected state at the line.
	want := make([][]byte, ranks)
	for i, sp := range spaces {
		want[i] = make([]byte, 8*512)
		sp.Read(regions[i].Start(), want[i])
	}
	// More progress that will be lost to the failure.
	for i, sp := range spaces {
		sp.Write(regions[i].Start()+3*512, bytes.Repeat([]byte{0xEE}, 512))
	}

	// Failure: all address spaces lost. Find the line and restore all.
	seq, ok, err := LatestConsistentSeq(store, ranks)
	if err != nil || !ok || seq != 1 {
		t.Fatalf("line: seq=%d ok=%v err=%v", seq, ok, err)
	}
	restored, err := RestoreAll(store, ranks, seq)
	if err != nil {
		t.Fatal(err)
	}
	for i, sp := range restored {
		got := make([]byte, 8*512)
		if err := sp.Read(regions[i].Start(), got); err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("rank %d state mismatch after recovery", i)
		}
	}
}

// TestRecoveryReadsViewTheStore: verifying a line and sizing its chain
// read every segment through Get, which lends, so on the hardened
// in-memory stack they allocate headers and page tables, not a copy of
// the bytes.
// Recovery's cost then does not swing with how long the chain happened
// to be when the failure struck.
func TestRecoveryReadsViewTheStore(t *testing.T) {
	const pages, chain = 64, 4
	inner := storage.NewResilientStore(storage.NewIntegrityStore(storage.NewMemStore()), storage.RetryPolicy{})
	store, err := storage.NewMirrorStore(inner)
	if err != nil {
		t.Fatal(err)
	}
	eng := des.NewEngine()
	sp := mem.NewAddressSpace(mem.Config{PageSize: pageSize})
	r, _ := sp.Mmap(pages * pageSize)
	c, _ := NewCheckpointer(eng, sp, Options{Store: store})
	c.Start()
	for i := 0; i < chain; i++ {
		sp.Write(r.Start(), bytes.Repeat([]byte{byte(i + 1)}, pages*pageSize))
		if _, err := c.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	var volume uint64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := VerifyLine(store, 1, chain-1); err != nil {
		t.Fatal(err)
	}
	if volume, err = ChainVolume(store, 0, chain-1); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if volume < chain*pages*pageSize {
		t.Fatalf("chain volume %d, want at least %d page bytes", volume, chain*pages*pageSize)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > volume/4 {
		t.Fatalf("verify + chain volume allocated %d bytes reading a %d-byte chain twice: the reads copy", got, volume)
	}
}

func TestRestoreAllValidation(t *testing.T) {
	store := storage.NewMemStore()
	if _, err := RestoreAll(store, 0, 0); err == nil {
		t.Fatal("zero ranks accepted")
	}
	if _, err := RestoreAll(store, 2, 5); err == nil {
		t.Fatal("missing segments accepted")
	}
}

// BenchmarkRestoreBacked restores the supervised stencil's shape:
// RestoreAll of one rank's chain 0(F) 1 2 over a 1 MiB backed heap of
// 4 KiB pages, half of it rewritten per line — a LoadPage for every
// page record the chain replays.
func BenchmarkRestoreBacked(b *testing.B) {
	store := restoreBackedChain(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RestoreAll(store, 1, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRestoreBackedInherit is BenchmarkRestoreBacked restoring each
// op into the slabs of the space the op before restored, as a recovery
// restores into the dead team's: the heap's slab is made once, before
// the timer starts, not once per op, and cleared instead.
func BenchmarkRestoreBackedInherit(b *testing.B) {
	store := restoreBackedChain(b)
	dead, err := RestoreAll(store, 1, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spaces, _, err := restoreLine(store, 1, 2, dead)
		if err != nil {
			b.Fatal(err)
		}
		dead[0] = spaces[0]
	}
}

// restoreBackedChain writes the restore rungs' chain and readies b.
func restoreBackedChain(b *testing.B) storage.Store {
	eng := des.NewEngine()
	sp := mem.NewAddressSpace(mem.Config{PageSize: pageSize})
	store := storage.NewMemStore()
	c, _ := NewCheckpointer(eng, sp, Options{Store: store, FullEvery: 3})
	r, _ := sp.Mmap(256 * pageSize)
	row := bytes.Repeat([]byte{0xA5}, 128*pageSize)
	c.Start()
	for i := 0; i < 3; i++ {
		row[0] = byte(i)
		if err := sp.Write(r.Start()+uint64(i%2)*uint64(len(row)), row); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.SetBytes(int64(r.Size()))
	return store
}
