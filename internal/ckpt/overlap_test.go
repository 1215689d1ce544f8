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

func newOverlap(t *testing.T, sink storage.Model) (*des.Engine, *mem.AddressSpace, *Checkpointer, *storage.MemStore) {
	t.Helper()
	eng := des.NewEngine()
	sp := mem.NewAddressSpace(mem.Config{PageSize: pageSize})
	store := storage.NewMemStore()
	c, err := NewCheckpointer(eng, sp, Options{Store: store, Sink: sink, FullEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	return eng, sp, c, store
}

// slowSink drains one page per virtual second.
func slowSink() storage.Model {
	return storage.Model{Name: "slow", Bandwidth: float64(pageSize)}
}

func TestOverlappedBasic(t *testing.T) {
	eng, sp, c, _ := newOverlap(t, slowSink())
	r, _ := sp.Mmap(5 * pageSize)
	sp.Write(r.Start(), bytes.Repeat([]byte{7}, 5*pageSize))
	c.Start()

	var got Result
	done := false
	if err := c.CheckpointOverlapped(func(res Result, err error) {
		if err != nil {
			t.Error(err)
		}
		got = res
		done = true
	}); err != nil {
		t.Fatal(err)
	}
	if !c.Draining() {
		t.Fatal("not draining after trigger")
	}
	// A second trigger while draining fails; so does a synchronous one.
	if err := c.CheckpointOverlapped(nil); err == nil {
		t.Fatal("double overlapped trigger accepted")
	}
	if _, err := c.Checkpoint(); err == nil {
		t.Fatal("synchronous checkpoint during drain accepted")
	}
	eng.Run(des.MaxTime)
	if !done || c.Draining() {
		t.Fatal("drain never completed")
	}
	if got.Kind != Full || got.Pages != 5 {
		t.Fatalf("result: %+v", got)
	}
	if got.CompletedAt != got.Duration {
		t.Fatalf("completed at %v, want %v", got.CompletedAt, got.Duration)
	}
	if c.Stats().CowCopyBytes != 0 {
		t.Fatal("no writes during drain, but CoW copies counted")
	}
}

// The defining property: writes racing the drain do NOT leak into the
// checkpoint — the segment holds the trigger-time image.
func TestOverlappedPreImageSemantics(t *testing.T) {
	eng, sp, c, store := newOverlap(t, slowSink())
	r, _ := sp.Mmap(4 * pageSize)
	sp.Write(r.Start(), bytes.Repeat([]byte{0xAA}, 4*pageSize))
	c.Start()

	// Snapshot the trigger-time image.
	want := make([]byte, 4*pageSize)
	sp.Read(r.Start(), want)

	if err := c.CheckpointOverlapped(nil); err != nil {
		t.Fatal(err)
	}
	// Drain lasts 4 virtual seconds; dirty pages 0 and 2 at t=1s.
	eng.Schedule(des.Second, func() {
		sp.Write(r.Start(), bytes.Repeat([]byte{0xBB}, 100))
		sp.Write(r.Start()+2*pageSize, bytes.Repeat([]byte{0xCC}, 100))
	})
	eng.Run(des.MaxTime)

	if got := c.Stats().CowCopyBytes; got != 2*pageSize {
		t.Fatalf("CowCopyBytes = %d, want 2 pages", got)
	}
	fresh := mem.NewAddressSpace(mem.Config{PageSize: pageSize})
	if err := Restore(store, 0, 0, fresh); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4*pageSize)
	fresh.Read(r.Start(), got)
	if !bytes.Equal(got, want) {
		t.Fatal("drain-racing writes leaked into the checkpoint")
	}
	// And the post-drain dirty state carries the racing writes into the
	// NEXT checkpoint.
	res, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if res.Pages != 2 {
		t.Fatalf("next delta pages = %d, want 2", res.Pages)
	}
}

// An overlapped full segment honours ExcludeData exactly like the
// synchronous path: a recomputable region's pages are never protected, so
// they must not be captured either — least of all at their drain-end
// content. The stored bytes are identical to a stop-and-copy at the
// trigger.
func TestOverlappedFullHonoursExcludeData(t *testing.T) {
	take := func(overlapped bool) []byte {
		eng, sp, c, store := newOverlap(t, slowSink())
		kept, _ := sp.Mmap(2 * pageSize)
		scratch, _ := sp.Mmap(2 * pageSize)
		sp.Write(kept.Start(), bytes.Repeat([]byte{1}, 2*pageSize))
		sp.Write(scratch.Start(), bytes.Repeat([]byte{2}, 2*pageSize))
		c.ExcludeData(scratch)
		c.Start()
		if overlapped {
			if err := c.CheckpointOverlapped(nil); err != nil {
				t.Fatal(err)
			}
			// Unprotected, so this write takes no fault and leaves no
			// pre-image: a captured scratch page would hold 3s.
			eng.Schedule(des.Second, func() { sp.Write(scratch.Start(), bytes.Repeat([]byte{3}, pageSize)) })
			eng.Run(des.MaxTime)
		} else if _, err := c.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		data, err := store.Get(SegmentKey(0, 0))
		if err != nil {
			t.Fatal(err)
		}
		seg, err := DecodeSegment(data)
		if err != nil {
			t.Fatal(err)
		}
		if seg.Kind != Full || len(seg.Pages) != 2 || len(seg.Regions) != 2 {
			t.Fatalf("overlapped=%v: kind %v, %d pages, %d regions; want full, 2, 2", overlapped, seg.Kind, len(seg.Pages), len(seg.Regions))
		}
		return data
	}
	if !bytes.Equal(take(true), take(false)) {
		t.Fatal("overlapped full segment under ExcludeData differs from the synchronous one")
	}
}

func TestOverlappedUnmapDuringDrain(t *testing.T) {
	eng, sp, c, store := newOverlap(t, slowSink())
	keep, _ := sp.Mmap(pageSize)
	sp.Write(keep.Start(), []byte{1})
	c.Start()
	c.CheckpointOverlapped(nil) // full: 1 page, 1s drain
	eng.Run(des.MaxTime)

	// Map a temp arena, dirty it, trigger, then unmap mid-drain.
	temp, _ := sp.Mmap(3 * pageSize)
	sp.Write(temp.Start(), bytes.Repeat([]byte{9}, 3*pageSize))
	tempStart := temp.Start()
	if err := c.CheckpointOverlapped(nil); err != nil {
		t.Fatal(err)
	}
	eng.Schedule(eng.Now()+des.Second, func() { sp.Munmap(temp) })
	eng.Run(des.MaxTime)

	// The segment must still carry the arena's trigger-time contents.
	seg, err := LoadSegment(store, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, p := range seg.Pages {
		if p.Addr >= tempStart && p.Addr < tempStart+3*pageSize {
			found++
			if p.Data == nil || p.Data[0] != 9 {
				t.Fatal("unmapped-region page captured with wrong contents")
			}
		}
	}
	if found != 3 {
		t.Fatalf("captured %d pages of the unmapped arena, want 3", found)
	}
}

func TestOverlappedIncrementalChainRestores(t *testing.T) {
	eng, sp, c, store := newOverlap(t, slowSink())
	r, _ := sp.Mmap(8 * pageSize)
	sp.Write(r.Start(), bytes.Repeat([]byte{1}, 8*pageSize))
	c.Start()

	var lastSeq uint64
	step := func(mutate func()) {
		if err := c.CheckpointOverlapped(func(res Result, err error) {
			if err != nil {
				t.Error(err)
			}
			lastSeq = res.Seq
		}); err != nil {
			t.Fatal(err)
		}
		eng.Run(des.MaxTime) // drain fully
		mutate()
	}
	step(func() { sp.Write(r.Start()+pageSize, bytes.Repeat([]byte{2}, pageSize)) })
	step(func() { sp.Write(r.Start()+5*pageSize, bytes.Repeat([]byte{3}, 2*pageSize)) })
	step(func() {})

	want := make([]byte, 8*pageSize)
	sp.Read(r.Start(), want)
	fresh := mem.NewAddressSpace(mem.Config{PageSize: pageSize})
	if err := Restore(store, 0, lastSeq, fresh); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 8*pageSize)
	fresh.Read(r.Start(), got)
	if !bytes.Equal(got, want) {
		t.Fatal("overlapped chain restore mismatch")
	}
}

func TestOverlappedRequiresStart(t *testing.T) {
	_, _, c, _ := newOverlap(t, slowSink())
	if err := c.CheckpointOverlapped(nil); err == nil {
		t.Fatal("overlapped checkpoint before Start accepted")
	}
}

// Property: under random write schedules racing random drains, the
// restored image always equals the trigger-time snapshot.
func TestPropertyOverlappedTriggerImage(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 81))
		eng := des.NewEngine()
		sp := mem.NewAddressSpace(mem.Config{PageSize: 512})
		store := storage.NewMemStore()
		sink := storage.Model{Name: "s", Bandwidth: 512 * float64(rng.IntN(4)+1)}
		c, _ := NewCheckpointer(eng, sp, Options{Store: store, Sink: sink})
		const pages = 16
		r, _ := sp.Mmap(pages * 512)
		// Random initial contents.
		init := make([]byte, pages*512)
		for i := range init {
			init[i] = byte(rng.IntN(256))
		}
		sp.Write(r.Start(), init)
		c.Start()

		want := make([]byte, pages*512)
		sp.Read(r.Start(), want)
		if c.CheckpointOverlapped(nil) != nil {
			return false
		}
		// Racing writes at random times during (and after) the drain.
		for i := 0; i < rng.IntN(10); i++ {
			at := des.Time(rng.IntN(20)+1) * des.Second / 2
			off := uint64(rng.IntN(pages)) * 512
			val := byte(rng.IntN(256))
			eng.Schedule(at, func() {
				sp.Write(r.Start()+off, bytes.Repeat([]byte{val}, 512))
			})
		}
		eng.Run(des.MaxTime)
		fresh := mem.NewAddressSpace(mem.Config{PageSize: 512})
		if Restore(store, 0, 0, fresh) != nil {
			return false
		}
		got := make([]byte, pages*512)
		fresh.Read(r.Start(), got)
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkOverlappedCheckpoint(b *testing.B) {
	eng := des.NewEngine()
	sp := mem.NewAddressSpace(mem.Config{PageSize: pageSize})
	store := storage.NewMemStore()
	c, _ := NewCheckpointer(eng, sp, Options{Store: store, Sink: storage.SCSISink()})
	r, _ := sp.Mmap(256 * pageSize)
	c.Start()
	b.SetBytes(64 * pageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.WriteRange(r.Start(), 64*pageSize)
		if err := c.CheckpointOverlapped(nil); err != nil {
			b.Fatal(err)
		}
		eng.Run(des.MaxTime)
	}
}
