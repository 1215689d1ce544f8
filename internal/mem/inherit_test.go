package mem

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
)

// inheritLayout maps, on a backed space of 4 KB pages, the regions a
// supervised rank holds: a data region, two arenas and a bounce arena,
// and fills every one of them with 0xAA, so that any byte an heir keeps
// from them shows.
func inheritLayout(t *testing.T) (*AddressSpace, []*Region) {
	t.Helper()
	s := NewAddressSpace(Config{PageSize: 4096})
	bounce, err := s.MapBounce(2 * 4096)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := s.Mmap(3 * 4096)
	b, _ := s.Mmap(5 * 4096)
	regions := []*Region{s.MapData(2 * 4096), bounce, a, b}
	for _, r := range regions {
		if err := s.Write(r.Start(), bytes.Repeat([]byte{0xAA}, int(r.Size()))); err != nil {
			t.Fatal(err)
		}
	}
	return s, regions
}

// remap maps regions' layout into s, the way a restore does.
func remap(t *testing.T, s *AddressSpace, regions []*Region) []*Region {
	t.Helper()
	var out []*Region
	for _, r := range regions {
		m, err := s.MapAt(r.Start(), r.Size(), r.Kind())
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, m)
	}
	return out
}

// checkFresh fails unless every page of regions reads zero and PeekPage
// reports it unwritten.
func checkFresh(t *testing.T, regions []*Region) {
	t.Helper()
	for _, r := range regions {
		got := make([]byte, r.Size())
		if err := r.space.Read(r.Start(), got); err != nil {
			t.Fatal(err)
		}
		if i := bytes.IndexFunc(got, func(c rune) bool { return c != 0 }); i >= 0 {
			t.Errorf("%v region at %#x: byte %d reads %#x, want 0", r.Kind(), r.Start(), i, got[i])
		}
		for idx := range r.Pages() {
			if r.PeekPage(idx) != nil {
				t.Errorf("%v region at %#x: page %d reported written", r.Kind(), r.Start(), idx)
			}
		}
	}
}

// TestInheritTakesEachSlabCleared: a space that inherits a dead one's
// slabs and maps its layout again — by MapAt as a restore does, or by
// MapBounce and Mmap in the original order as a fresh build does — gives
// each region the dead region's slab, cleared: it reads zero where
// nothing wrote it, PeekPage reports every page unwritten, its digest is
// a fresh space's, and a write lands as on a fresh space.
func TestInheritTakesEachSlabCleared(t *testing.T) {
	for _, how := range []string{"MapAt", "Mmap"} {
		dead, regions := inheritLayout(t)
		slabs := make(map[uint64]*byte)
		for _, r := range regions {
			slabs[r.Start()] = &r.slab[0]
		}
		heir := NewAddressSpace(Config{PageSize: 4096})
		heir.Inherit(dead)
		var got []*Region
		if how == "MapAt" {
			got = remap(t, heir, regions)
		} else {
			d := heir.MapData(2 * 4096)
			bounce, _ := heir.MapBounce(2 * 4096)
			a, _ := heir.Mmap(3 * 4096)
			b, _ := heir.Mmap(5 * 4096)
			got = []*Region{d, bounce, a, b}
		}
		for i, r := range got {
			if r.Start() != regions[i].Start() {
				t.Fatalf("%s: region %d at %#x, the dead space's at %#x", how, i, r.Start(), regions[i].Start())
			}
			if r.slab == nil || &r.slab[0] != slabs[r.Start()] {
				t.Errorf("%s: %v region at %#x did not take the dead region's slab", how, r.Kind(), r.Start())
			}
		}
		if spareCount(heir) != 0 {
			t.Errorf("%s: %d slabs left unused", how, spareCount(heir))
		}
		checkFresh(t, got)
		fresh := NewAddressSpace(Config{PageSize: 4096})
		want := remap(t, fresh, regions)
		if heir.Digest(nil) != fresh.Digest(nil) {
			t.Errorf("%s: digest %#x, a fresh space's %#x", how, heir.Digest(nil), fresh.Digest(nil))
		}
		page := bytes.Repeat([]byte{7}, 4096)
		got[2].LoadPage(1, page)
		want[2].LoadPage(1, page)
		if heir.Digest(nil) != fresh.Digest(nil) || got[2].PeekPage(0) != nil || !bytes.Equal(got[2].PeekPage(1), page) {
			t.Errorf("%s: a loaded page does not read as on a fresh space", how)
		}
	}
}

// TestInheritMatchesStartSizeAndKind: a region inherits only a slab of
// its own start, size and kind. A region one page off, one page larger
// or smaller, or of another kind maps with no slab, as on a fresh space;
// the unmatched slabs stay with the heir, and a later region that
// matches takes one.
func TestInheritMatchesStartSizeAndKind(t *testing.T) {
	dead, regions := inheritLayout(t)
	a, b := regions[2], regions[3] // Mmap arenas of 3 and 5 pages
	heir := NewAddressSpace(Config{PageSize: 4096})
	heir.Inherit(dead)
	for _, c := range []struct {
		name        string
		start, size uint64
		kind        Kind
	}{
		{"start", b.Start() + 4096, b.Size() - 4096, Mmap},
		{"larger", a.Start(), a.Size() + 4096, Mmap},
		{"smaller", a.Start(), a.Size() - 4096, Mmap},
		{"kind", a.Start(), a.Size(), Data},
		{"bounce kind", regions[1].Start(), regions[1].Size(), Mmap},
	} {
		r, err := heir.MapAt(c.start, c.size, c.kind)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if r.slab != nil {
			t.Errorf("%s mismatch: the region took a slab", c.name)
		}
		checkFresh(t, []*Region{r})
		heir.remove(r)
	}
	if spareCount(heir) != len(regions) {
		t.Fatalf("the heir keeps %d slabs, want all %d", spareCount(heir), len(regions))
	}
	r, err := heir.MapAt(a.Start(), a.Size(), Mmap)
	if err != nil {
		t.Fatal(err)
	}
	if r.slab == nil {
		t.Error("a matching region mapped after the mismatches took no slab")
	}
	checkFresh(t, []*Region{r})
}

// TestInheritEmptiesTheDeadSpace: the dead space keeps no region, so a
// write meant for it fails with ErrUnmapped and never reaches the heir.
// A dead region someone still holds keeps its slab only until the heir
// takes it: what is loaded into it before is cleared, and a load after
// makes the dead region a new slab, leaving the heir's bytes alone.
func TestInheritEmptiesTheDeadSpace(t *testing.T) {
	dead, regions := inheritLayout(t)
	held := regions[2]
	heir := NewAddressSpace(Config{PageSize: 4096})
	heir.Inherit(dead)
	if n := len(dead.Regions()); n != 0 {
		t.Fatalf("the dead space keeps %d regions", n)
	}
	if err := dead.Write(held.Start(), []byte{1}); !errors.Is(err, ErrUnmapped) {
		t.Fatalf("a write to the dead space: %v, want ErrUnmapped", err)
	}
	if held.PeekPage(0) != nil {
		t.Error("a dead region reports a written page")
	}
	page := bytes.Repeat([]byte{0xBB}, 4096)
	held.LoadPage(0, page) // before the heir takes the slab
	got := remap(t, heir, regions)
	checkFresh(t, got)
	before := heir.Digest(nil)
	held.LoadPage(1, page) // after
	if err := dead.Write(held.Start(), page); !errors.Is(err, ErrUnmapped) {
		t.Fatalf("a write to the dead space: %v, want ErrUnmapped", err)
	}
	if heir.Digest(nil) != before {
		t.Error("a load into a dead region changed the heir")
	}
	checkFresh(t, got)
}

// TestInheritPassesSparesOn: slabs an heir never used go with it to the
// space that inherits it, so a recovery whose first attempt is abandoned
// still hands the dead team's slabs to the one that completes. A phantom
// heir takes nothing, and Inherit of nil or of the space itself does
// nothing.
func TestInheritPassesSparesOn(t *testing.T) {
	dead, regions := inheritLayout(t)
	first := &regions[3].slab[0]
	abandoned := NewAddressSpace(Config{PageSize: 4096})
	abandoned.Inherit(dead)
	remap(t, abandoned, regions[2:3]) // takes one arena's slab, not the other's
	heir := NewAddressSpace(Config{PageSize: 4096})
	heir.Inherit(abandoned)
	heir.Inherit(nil)
	heir.Inherit(heir)
	got := remap(t, heir, regions)
	if &got[3].slab[0] != first {
		t.Error("the dead arena's slab did not reach the second heir")
	}
	checkFresh(t, got)
	if spareCount(heir) != 0 {
		t.Errorf("%d slabs left unused", spareCount(heir))
	}

	dead, regions = inheritLayout(t)
	phantom := NewAddressSpace(Config{PageSize: 4096, Phantom: true})
	phantom.Inherit(dead)
	for _, r := range remap(t, phantom, regions) {
		if r.slab != nil {
			t.Errorf("a phantom region took a slab")
		}
	}
	if spareCount(phantom) != 0 || len(dead.Regions()) != 0 {
		t.Errorf("phantom heir: %d spares, dead space keeps %d regions", spareCount(phantom), len(dead.Regions()))
	}
}

// TestInheritAllocatesNoSlab: a restore into inherited slabs — map the
// layout, load every page — allocates a small fraction of what the
// slabs hold; without a dead space it allocates them all.
func TestInheritAllocatesNoSlab(t *testing.T) {
	page := bytes.Repeat([]byte{3}, 4096)
	restore := func(dead *AddressSpace, regions []*Region) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s := NewAddressSpace(Config{PageSize: 4096})
		s.Inherit(dead)
		for _, r := range remap(t, s, regions) {
			for idx := range r.Pages() {
				r.LoadPage(idx, page)
			}
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	dead, regions := inheritLayout(t)
	var slabs uint64
	for _, r := range regions {
		slabs += r.Size()
	}
	if got := restore(nil, regions); got < slabs {
		t.Fatalf("a fresh restore allocated %d bytes, less than its %d slab bytes: the probe measures nothing", got, slabs)
	}
	if got := restore(dead, regions); got > slabs/4 {
		t.Errorf("an inheriting restore allocated %d bytes of %d slab bytes", got, slabs)
	}
}

// spareCount is how many slabs s holds that no region of it took.
func spareCount(s *AddressSpace) int {
	if s.spares == nil {
		return 0
	}
	return len(*s.spares)
}
