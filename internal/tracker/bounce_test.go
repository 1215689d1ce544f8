package tracker

import (
	"testing"

	"repro/internal/ckpt"
	"repro/internal/ckptspec"
	"repro/internal/des"
	"repro/internal/mem"
	"repro/internal/migrate"
	"repro/internal/mpi"
	"repro/internal/storage"
)

// A world rank's bounce arena is outside every dirty log by its kind
// alone. With no exclusion call anywhere (and no AttachRank), a tracker
// never protects it — Open and Reset price the rank's data pages only —
// a checkpointer stacked on the tracker captures none of its pages and
// leaves it out of the region table, and a migrator does not replicate
// it. The arena still counts toward the footprint.
func TestBounceArenaOutsideEveryLog(t *testing.T) {
	for _, ps := range []uint64{4096, mem.DefaultPageSize} {
		eng := des.NewEngine()
		sp := mem.NewAddressSpace(mem.Config{PageSize: ps})
		w, err := mpi.NewWorld(eng, mpi.QsNet(), mpi.Bounce, []*mem.AddressSpace{sp})
		if err != nil {
			t.Fatal(err)
		}
		bounce := w.BounceRegion(0)
		if want := (1 << 20) / ps; bounce.Pages() != want {
			t.Fatalf("%d-byte pages: bounce arena has %d pages, want %d", ps, bounce.Pages(), want)
		}
		const dataPages = 8
		arena, _ := sp.Mmap(dataPages * ps)
		if got, want := sp.Footprint(), bounce.Size()+arena.Size(); got != want {
			t.Fatalf("%d-byte pages: footprint %d, want %d (bounce arena included)", ps, got, want)
		}

		tr, _ := New(eng, sp, Options{Timeslice: des.Second})
		tr.Start()
		c, err := ckpt.NewCheckpointer(eng, sp, ckpt.Options{Store: storage.NewMemStore()})
		if err != nil {
			t.Fatal(err)
		}
		c.Start()
		if n := bounce.ProtectedPages(); n != 0 {
			t.Fatalf("%d-byte pages: %d bounce pages protected", ps, n)
		}
		dst := mem.NewAddressSpace(mem.Config{PageSize: ps})
		m, err := migrate.New(eng, sp, dst)
		if err != nil {
			t.Fatal(err)
		}
		var res ckpt.Result
		migrated := false
		eng.Schedule(100*des.Millisecond, func() {
			if err := sp.WriteRange(bounce.Start(), bounce.Size()); err != nil {
				t.Error(err)
			}
			if res, err = c.Checkpoint(); err != nil {
				t.Error(err)
			}
			if err := m.Run(func(_ migrate.Result, err error) {
				if err != nil {
					t.Error(err)
				}
				migrated = true
			}); err != nil {
				t.Error(err)
			}
		})
		eng.Run(2500 * des.Millisecond)
		tr.Stop()
		c.Stop()

		// Tracker: a pass prices the arena's pages and nothing else.
		pass := alarmFixedCost + dataPages*reprotectCostPerPage
		ss := tr.Samples()
		if len(ss) != 2 || ss[0].Overhead != 2*pass || ss[1].Overhead != pass || ss[0].Faults != 0 || ss[0].IWSPages != 0 {
			t.Fatalf("%d-byte pages: samples %+v; want two, overheads %v and %v, no faults", ps, ss, 2*pass, pass)
		}
		// Checkpointer: the arena's pages, and one table entry.
		if res.Kind != ckpt.Full || res.Pages != dataPages {
			t.Fatalf("%d-byte pages: full capture of %d pages, want %d", ps, res.Pages, dataPages)
		}
		if rt := firstRegionTable(t, c); len(rt) != 1 || rt[0].Start != arena.Start() {
			t.Fatalf("%d-byte pages: region table %+v, want only the arena at %#x", ps, rt, arena.Start())
		}
		// Migrator: the arena crossed, the bounce arena did not.
		if !migrated {
			t.Fatalf("%d-byte pages: migration did not complete", ps)
		}
		if dst.Find(arena.Start()) == nil || dst.Find(bounce.Start()) != nil {
			t.Fatalf("%d-byte pages: destination has %d regions, want the arena only", ps, len(dst.Regions()))
		}
	}
}

// A tracker and a checkpointer stacked on one space both skip a region
// Spec.Apply marked: neither protects it, writes to it fault in neither
// log, and the full capture holds only the must-class region — while
// the marked region keeps its region-table entry.
func TestStackedLogsSkipSpecRecomputable(t *testing.T) {
	eng := des.NewEngine()
	sp := mem.NewAddressSpace(mem.Config{PageSize: pageSize})
	grid, _ := sp.Mmap(4 * pageSize)
	scratch, _ := sp.Mmap(6 * pageSize)
	spec := &ckptspec.Spec{Package: "p", Regions: []ckptspec.Region{
		{Name: "K.grid", Class: ckptspec.Must, Reason: "live"},
		{Name: "K.scratch", Class: ckptspec.Recomputable, Reason: "scratch"},
	}}
	spec.Apply([]ckptspec.Binding{{Name: "K.grid", Region: grid}, {Name: "K.scratch", Region: scratch}})
	tr, _ := New(eng, sp, Options{Timeslice: des.Second})
	tr.Start()
	c, err := ckpt.NewCheckpointer(eng, sp, ckpt.Options{Store: storage.NewMemStore()})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	if scratch.ProtectedPages() != 0 || grid.ProtectedPages() != grid.Pages() {
		t.Fatalf("protected: scratch %d, grid %d of %d", scratch.ProtectedPages(), grid.ProtectedPages(), grid.Pages())
	}
	var res ckpt.Result
	eng.Schedule(100*des.Millisecond, func() {
		sp.WriteRange(scratch.Start(), scratch.Size())
		sp.WriteRange(grid.Start(), 2*pageSize)
		if res, err = c.Checkpoint(); err != nil {
			t.Error(err)
		}
	})
	eng.Run(1500 * des.Millisecond)
	tr.Stop()
	c.Stop()
	if ss := tr.Samples(); len(ss) != 1 || ss[0].IWSPages != 2 || ss[0].Faults != 2 {
		t.Fatalf("tracker samples %+v, want one of 2 pages and 2 faults", ss)
	}
	if res.Pages != grid.Pages() {
		t.Fatalf("full capture of %d pages, want the grid's %d", res.Pages, grid.Pages())
	}
	if rt := firstRegionTable(t, c); len(rt) != 2 || rt[1].Start != scratch.Start() {
		t.Fatalf("region table %+v, want grid and scratch", rt)
	}
}

// firstRegionTable returns the region table of c's first segment.
func firstRegionTable(t *testing.T, c *ckpt.Checkpointer) []ckpt.RegionInfo {
	t.Helper()
	data, err := c.Store().Get(ckpt.SegmentKey(c.Rank(), 0))
	if err != nil {
		t.Fatal(err)
	}
	seg, err := ckpt.DecodeSegment(data)
	if err != nil {
		t.Fatal(err)
	}
	return seg.Regions
}
