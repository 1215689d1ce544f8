package tracker

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/ckpt"
	"repro/internal/des"
	"repro/internal/mem"
	"repro/internal/mpi"
	"repro/internal/storage"
)

const pageSize = 4096

func setup(t *testing.T, ts des.Time) (*des.Engine, *mem.AddressSpace, *Tracker) {
	t.Helper()
	eng := des.NewEngine()
	sp := mem.NewAddressSpace(mem.Config{PageSize: pageSize, Phantom: true})
	tr, err := New(eng, sp, Options{Timeslice: ts})
	if err != nil {
		t.Fatal(err)
	}
	return eng, sp, tr
}

func TestNewValidation(t *testing.T) {
	eng := des.NewEngine()
	sp := mem.NewAddressSpace(mem.Config{})
	if _, err := New(eng, sp, Options{}); err == nil {
		t.Fatal("zero timeslice accepted")
	}
}

func TestBasicIWSAccounting(t *testing.T) {
	eng, sp, tr := setup(t, des.Second)
	r, _ := sp.Mmap(100 * pageSize)
	tr.Start()

	// Slice 0: write 10 pages. Slice 1: write 3 pages (overlapping).
	eng.Schedule(100*des.Millisecond, func() {
		if err := sp.WriteRange(r.Start(), 10*pageSize); err != nil {
			t.Error(err)
		}
	})
	eng.Schedule(1100*des.Millisecond, func() {
		if err := sp.WriteRange(r.Start()+5*pageSize, 3*pageSize); err != nil {
			t.Error(err)
		}
	})
	eng.Run(2 * des.Second)
	tr.Stop()

	ss := tr.Samples()
	if len(ss) != 2 {
		t.Fatalf("samples = %d, want 2", len(ss))
	}
	if ss[0].IWSPages != 10 || ss[0].IWSBytes != 10*pageSize {
		t.Fatalf("slice0 IWS = %d pages", ss[0].IWSPages)
	}
	if ss[1].IWSPages != 3 {
		t.Fatalf("slice1 IWS = %d pages (re-protection failed?)", ss[1].IWSPages)
	}
	if ss[0].Faults != 10 || ss[1].Faults != 3 {
		t.Fatalf("faults = %d, %d", ss[0].Faults, ss[1].Faults)
	}
	if ss[0].FootprintBytes != 100*pageSize {
		t.Fatalf("footprint = %d", ss[0].FootprintBytes)
	}
	if got := ss[0].IBytesPerSec(); got != 10*pageSize {
		t.Fatalf("IB = %v B/s, want %v", got, 10*pageSize)
	}
}

func TestRewriteWithinSliceCountsOnce(t *testing.T) {
	eng, sp, tr := setup(t, des.Second)
	r, _ := sp.Mmap(50 * pageSize)
	tr.Start()
	for i := 0; i < 5; i++ {
		eng.Schedule(des.Time(i+1)*100*des.Millisecond, func() {
			sp.WriteRange(r.Start(), 20*pageSize)
		})
	}
	eng.Run(des.Second)
	ss := tr.Samples()
	if len(ss) != 1 || ss[0].IWSPages != 20 {
		t.Fatalf("IWS = %+v, want 20 pages once", ss)
	}
	if ss[0].Faults != 20 {
		t.Fatalf("faults = %d, want 20 (one per page, not per write)", ss[0].Faults)
	}
}

func TestMemoryExclusion(t *testing.T) {
	eng, sp, tr := setup(t, des.Second)
	keep, _ := sp.Mmap(10 * pageSize)
	tr.Start()
	var temp *mem.Region
	eng.Schedule(100*des.Millisecond, func() {
		temp, _ = sp.Mmap(40 * pageSize)
		sp.WriteRange(temp.Start(), 40*pageSize)
		sp.WriteRange(keep.Start(), 5*pageSize)
	})
	eng.Schedule(500*des.Millisecond, func() {
		sp.Munmap(temp)
	})
	eng.Run(des.Second)
	ss := tr.Samples()
	if len(ss) != 1 {
		t.Fatalf("samples = %d", len(ss))
	}
	// Only the 5 pages of the surviving region count; the 40 pages of
	// the unmapped arena are excluded.
	if ss[0].IWSPages != 5 {
		t.Fatalf("IWS = %d pages, want 5 (exclusion failed)", ss[0].IWSPages)
	}
	if ss[0].ExcludedBytes != 40*pageSize {
		t.Fatalf("ExcludedBytes = %d, want %d", ss[0].ExcludedBytes, 40*pageSize)
	}
	if ss[0].FootprintBytes != 10*pageSize {
		t.Fatalf("footprint = %d after unmap", ss[0].FootprintBytes)
	}
}

func TestNewlyMappedRegionIsProtected(t *testing.T) {
	eng, sp, tr := setup(t, des.Second)
	tr.Start()
	var iws uint64
	eng.Schedule(100*des.Millisecond, func() {
		r, _ := sp.Mmap(8 * pageSize)
		// Initialization writes of a freshly mapped arena must fault
		// and be counted.
		sp.WriteRange(r.Start(), 8*pageSize)
	})
	eng.Run(des.Second)
	iws = tr.Samples()[0].IWSPages
	if iws != 8 {
		t.Fatalf("IWS = %d, want 8 (new arena writes missed)", iws)
	}
}

func TestHeapShrinkExcludesTail(t *testing.T) {
	eng, sp, tr := setup(t, des.Second)
	sp.Sbrk(20 * pageSize)
	tr.Start()
	eng.Schedule(100*des.Millisecond, func() {
		sp.WriteRange(sp.Heap().Start(), 20*pageSize)
		sp.Sbrk(-10 * pageSize)
	})
	eng.Run(des.Second)
	if got := tr.Samples()[0].IWSPages; got != 10 {
		t.Fatalf("IWS after heap shrink = %d, want 10", got)
	}
}

// A heap grown mid-slice grows protected: writes to the grown pages
// fault and count in that slice's IWS.
func TestHeapGrowthCountsInIWS(t *testing.T) {
	eng, sp, tr := setup(t, des.Second)
	sp.Sbrk(4 * pageSize)
	tr.Start()
	eng.Schedule(100*des.Millisecond, func() {
		sp.Sbrk(6 * pageSize)
		sp.WriteRange(sp.Heap().Start()+3*pageSize, 5*pageSize) // 1 old page, 4 grown
	})
	eng.Run(des.Second)
	if s := tr.Samples()[0]; s.IWSPages != 5 || s.Faults != 5 {
		t.Fatalf("IWS after heap growth = %d pages, %d faults; want 5, 5", s.IWSPages, s.Faults)
	}
}

func TestStopRestoresState(t *testing.T) {
	eng, sp, tr := setup(t, des.Second)
	r, _ := sp.Mmap(4 * pageSize)
	tr.Start()
	eng.Run(500 * des.Millisecond)
	tr.Stop()
	if tr.log.IsOpen() {
		t.Fatal("Running after Stop")
	}
	if r.ProtectedPages() != 0 {
		t.Fatal("pages left protected after Stop")
	}
	// Writes after Stop must not fault.
	before := sp.Faults()
	if err := sp.WriteRange(r.Start(), 4*pageSize); err != nil {
		t.Fatal(err)
	}
	if sp.Faults() != before {
		t.Fatal("write faulted after Stop")
	}
	tr.Stop() // idempotent
}

func TestDoubleStartPanics(t *testing.T) {
	_, _, tr := setup(t, des.Second)
	tr.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("double Start did not panic")
		}
	}()
	tr.Start()
}

func TestExcludedRegionNotTracked(t *testing.T) {
	eng, sp, tr := setup(t, des.Second)
	bounce, _ := sp.Mmap(16 * pageSize)
	tr.Exclude(bounce)
	tr.Start()
	if bounce.ProtectedPages() != 0 {
		t.Fatal("excluded region was protected")
	}
	eng.Schedule(100*des.Millisecond, func() {
		sp.WriteRange(bounce.Start(), 16*pageSize)
	})
	eng.Run(des.Second)
	if got := tr.Samples()[0].IWSPages; got != 0 {
		t.Fatalf("excluded region contributed %d pages to IWS", got)
	}
}

func TestRecvAccountingViaMPI(t *testing.T) {
	eng := des.NewEngine()
	spaces := []*mem.AddressSpace{
		mem.NewAddressSpace(mem.Config{PageSize: pageSize, Phantom: true}),
		mem.NewAddressSpace(mem.Config{PageSize: pageSize, Phantom: true}),
	}
	w, err := mpi.NewWorld(eng, mpi.QsNet(), mpi.Bounce, spaces)
	if err != nil {
		t.Fatal(err)
	}
	dest, _ := spaces[1].Mmap(64 * pageSize)
	tr, _ := New(eng, spaces[1], Options{Timeslice: des.Second})
	tr.AttachRank(w, 1)
	tr.Start()

	eng.Schedule(100*des.Millisecond, func() {
		w.Rank(1).Recv(0, 0, dest.Start(), nil)
		w.Rank(0).Send(1, 0, 3*pageSize, nil)
	})
	eng.Run(des.Second)
	ss := tr.Samples()
	if len(ss) != 1 {
		t.Fatalf("samples = %d", len(ss))
	}
	if ss[0].RecvBytes != 3*pageSize {
		t.Fatalf("RecvBytes = %d", ss[0].RecvBytes)
	}
	// Bounce copy writes must appear in the IWS.
	if ss[0].IWSPages != 3 {
		t.Fatalf("IWS = %d pages, want 3 (bounce copy not tracked)", ss[0].IWSPages)
	}
	// Bounce buffer itself must be excluded from protection.
	if w.BounceRegion(1).ProtectedPages() != 0 {
		t.Fatal("bounce buffer protected")
	}
	tr.Stop()
	// Hook restored after Stop.
	got := w.Rank(1).Stats().BytesReceived
	if got != 3*pageSize {
		t.Fatalf("stats after stop = %d", got)
	}
}

func TestOverheadAndSlowdown(t *testing.T) {
	eng := des.NewEngine()
	sp := mem.NewAddressSpace(mem.Config{PageSize: pageSize, Phantom: true})
	tr, _ := New(eng, sp, Options{Timeslice: des.Second})
	r, _ := sp.Mmap(1000 * pageSize)
	tr.Start()
	eng.Schedule(100*des.Millisecond, func() {
		sp.WriteRange(r.Start(), 1000*pageSize)
	})
	eng.Run(des.Second)
	s := tr.Samples()[0]
	// Overhead charged to slice 0: Start's initial protection pass
	// (200us + 1000 pages * 400ns) + 1000 faults * 12us + the alarm's
	// re-protection pass (200us + 1000 pages * 400ns) = 13.2ms.
	want := 2*(200*des.Microsecond+1000*400*des.Nanosecond) + 1000*12*des.Microsecond
	if s.Overhead != want {
		t.Fatalf("slice overhead = %v, want %v", s.Overhead, want)
	}
	if tr.TotalFaults() != 1000 {
		t.Fatalf("TotalFaults = %d", tr.TotalFaults())
	}
	// Slowdown over 1s of virtual time: 13.2ms → 1.32%.
	sd := tr.Slowdown()
	if sd < 0.0127 || sd > 0.0137 {
		t.Fatalf("Slowdown = %v", sd)
	}
}

func TestOnSample(t *testing.T) {
	eng := des.NewEngine()
	sp := mem.NewAddressSpace(mem.Config{PageSize: pageSize, Phantom: true})
	var seen int
	tr, _ := New(eng, sp, Options{Timeslice: des.Second, OnSample: func(Sample) { seen++ }})
	tr.Start()
	eng.Run(5 * des.Second)
	if seen != 5 || len(tr.Samples()) != 5 {
		t.Fatalf("OnSample fired %d times for %d samples, want 5 and 5", seen, len(tr.Samples()))
	}
}

func TestSeriesExports(t *testing.T) {
	eng, sp, tr := setup(t, des.Second)
	r, _ := sp.Mmap(1000 * pageSize)
	tr.Start()
	eng.Schedule(100*des.Millisecond, func() { sp.WriteRange(r.Start(), 500*pageSize) })
	eng.Run(2 * des.Second)
	iws := tr.IWSSeries()
	ib := tr.IBSeries()
	fp := tr.FootprintSeries()
	rcv := tr.RecvSeries()
	if iws.Len() != 2 || ib.Len() != 2 || fp.Len() != 2 || rcv.Len() != 2 {
		t.Fatal("series lengths")
	}
	wantMB := 500 * pageSize / MB
	if iws.Points[0].V != wantMB {
		t.Fatalf("IWS[0] = %v MB, want %v", iws.Points[0].V, wantMB)
	}
	if ib.Points[0].V != wantMB {
		t.Fatalf("IB[0] = %v MB/s, want %v", ib.Points[0].V, wantMB)
	}
	if fp.Points[1].V != 1000*pageSize/MB {
		t.Fatalf("footprint = %v", fp.Points[1].V)
	}
	if iws.Points[1].V != 0 {
		t.Fatalf("IWS[1] = %v, want 0", iws.Points[1].V)
	}
}

func TestSampleIBZeroDuration(t *testing.T) {
	s := Sample{IWSBytes: 100}
	if s.IBytesPerSec() != 0 {
		t.Fatal("zero-duration sample must report 0 IB")
	}
}

// Property: for random write patterns, the IWS of each slice equals the
// number of distinct pages written in that slice (single region, no
// unmapping).
func TestPropertyIWSMatchesDistinctPages(t *testing.T) {
	f := func(seed uint64, nWrites uint8) bool {
		eng := des.NewEngine()
		sp := mem.NewAddressSpace(mem.Config{PageSize: pageSize, Phantom: true})
		const pages = 128
		r, _ := sp.Mmap(pages * pageSize)
		tr, _ := New(eng, sp, Options{Timeslice: des.Second})
		tr.Start()
		rng := rand.New(rand.NewPCG(seed, 11))
		nSlices := 3
		want := make([]map[uint64]bool, nSlices)
		for i := range want {
			want[i] = map[uint64]bool{}
		}
		for i := 0; i < int(nWrites%50)+1; i++ {
			slice := rng.IntN(nSlices)
			at := des.Time(slice)*des.Second + des.Time(rng.IntN(999)+1)*des.Millisecond
			start := uint64(rng.IntN(pages * pageSize))
			n := uint64(rng.IntN(4*pageSize) + 1)
			if start+n > pages*pageSize {
				n = pages*pageSize - start
			}
			if n == 0 {
				continue
			}
			eng.Schedule(at, func() { sp.WriteRange(r.Start()+start, n) })
			for p := start / pageSize; p <= (start+n-1)/pageSize; p++ {
				want[slice][p] = true
			}
		}
		eng.Run(des.Time(nSlices) * des.Second)
		ss := tr.Samples()
		if len(ss) != nSlices {
			return false
		}
		for i, s := range ss {
			if s.IWSPages != uint64(len(want[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: longer timeslices never increase total IWS volume for a fixed
// write pattern (page reuse can only collapse more writes together) —
// the monotonicity underlying Fig 2.
func TestPropertyIWSVolumeMonotoneInTimeslice(t *testing.T) {
	f := func(seed uint64) bool {
		volume := func(ts des.Time) uint64 {
			eng := des.NewEngine()
			sp := mem.NewAddressSpace(mem.Config{PageSize: pageSize, Phantom: true})
			const pages = 64
			r, _ := sp.Mmap(pages * pageSize)
			tr, _ := New(eng, sp, Options{Timeslice: ts})
			tr.Start()
			rng := rand.New(rand.NewPCG(seed, 13))
			for i := 0; i < 200; i++ {
				at := des.Time(rng.IntN(11900) + 1)
				start := uint64(rng.IntN(pages)) * pageSize
				eng.Schedule(at*des.Millisecond, func() {
					sp.WriteRange(r.Start()+start, pageSize)
				})
			}
			eng.Run(12 * des.Second)
			var total uint64
			for _, s := range tr.Samples() {
				total += s.IWSBytes
			}
			return total
		}
		v1 := volume(des.Second)
		v2 := volume(2 * des.Second)
		v4 := volume(4 * des.Second)
		return v1 >= v2 && v2 >= v4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTrackerSweep(b *testing.B) {
	eng := des.NewEngine()
	sp := mem.NewAddressSpace(mem.Config{Phantom: true})
	r, _ := sp.Mmap(256 * 1024 * 1024)
	tr, _ := New(eng, sp, Options{Timeslice: des.Second})
	tr.Start()
	var t0 des.Time
	b.SetBytes(256 * 1024 * 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Schedule(t0+des.Millisecond, func() { sp.WriteRange(r.Start(), r.Size()) })
		t0 += des.Second
		eng.Run(t0)
	}
}

// BenchmarkStackedFaultSweep is the A12 shape: a CoW-accounting
// checkpointer and a tracker stacked on one phantom space, so every
// fault of the sweep is delivered to two dirty logs — with no segment
// draining (idle), and inside the drain window of one that captured
// every page (draining: the checkpointer's per-fault observer runs too).
// No checkpoint is taken inside the loop — the rung prices fault
// delivery, not capture.
func BenchmarkStackedFaultSweep(b *testing.B) {
	for _, mode := range []string{"idle", "draining"} {
		b.Run(mode, func(b *testing.B) {
			eng := des.NewEngine()
			sp := mem.NewAddressSpace(mem.Config{Phantom: true})
			r, _ := sp.Mmap(256 * 1024 * 1024)
			c, err := ckpt.NewCheckpointer(eng, sp, ckpt.Options{
				Store: storage.NewMemStore(), TrackCow: true,
				Sink: storage.Model{Name: "slow", Bandwidth: 1000}, // drains for days
			})
			if err != nil {
				b.Fatal(err)
			}
			c.Start()
			if mode == "draining" {
				sp.WriteRange(r.Start(), r.Size())
				if _, err := c.Checkpoint(); err != nil {
					b.Fatal(err)
				}
			}
			tr, _ := New(eng, sp, Options{Timeslice: des.Second})
			tr.Start()
			var t0 des.Time
			b.SetBytes(256 * 1024 * 1024)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Schedule(t0+des.Millisecond, func() { sp.WriteRange(r.Start(), r.Size()) })
				t0 += des.Second
				eng.Run(t0)
			}
		})
	}
}
