package mem

import (
	"cmp"
	"slices"
	"testing"
)

// interval is one live region as the placement oracle keeps it.
type interval struct {
	start, end uint64
	kind       Kind
}

func overlapsAny(live []interval, start, end uint64) bool {
	for _, iv := range live {
		if start < iv.end && iv.start < end {
			return true
		}
	}
	return false
}

// placementOracle restates the arena placement rule over a plain interval
// list: the lowest address from mmapBase up whose range meets no live
// interval. That address is mmapBase or the end of some interval, so
// those are the only candidates it tries; the highest end always fits.
func placementOracle(live []interval, size uint64) uint64 {
	cands := []uint64{mmapBase}
	for _, iv := range live {
		if iv.end > mmapBase {
			cands = append(cands, iv.end)
		}
	}
	slices.Sort(cands)
	for _, c := range cands {
		if !overlapsAny(live, c, c+size) {
			return c
		}
	}
	panic("mem: no candidate fits above the highest interval")
}

// checkLive fails unless s's live regions are exactly the oracle's
// intervals, in address order and pairwise disjoint.
func checkLive(t *testing.T, s *AddressSpace, live []interval) {
	t.Helper()
	want := slices.Clone(live)
	slices.SortFunc(want, func(a, b interval) int { return cmp.Compare(a.start, b.start) })
	regs := s.Regions()
	if len(regs) != len(want) {
		t.Fatalf("%d live regions, oracle holds %d", len(regs), len(want))
	}
	for i, r := range regs {
		if w := want[i]; r.Start() != w.start || r.End() != w.end || r.Kind() != w.kind {
			t.Fatalf("region %d: %v [%#x, %#x), oracle %v [%#x, %#x)", i, r.Kind(), r.Start(), r.End(), w.kind, w.start, w.end)
		}
		if i > 0 && regs[i-1].End() > r.Start() {
			t.Fatalf("live regions [%#x, %#x) and [%#x, %#x) overlap", regs[i-1].Start(), regs[i-1].End(), r.Start(), r.End())
		}
	}
}

// recreate maps s's live regions, its own stack aside, into a fresh space
// with MapAt, in address order: what a restore (ckpt.RestoreAll) and a
// migration's first round do.
func recreate(t *testing.T, s *AddressSpace) *AddressSpace {
	t.Helper()
	fresh := NewAddressSpace(s.cfg)
	for _, r := range s.Regions() {
		if r.Kind() == Stack && r.Start() == StackTop-StackSize {
			continue
		}
		if _, err := fresh.MapAt(r.Start(), r.Size(), r.Kind()); err != nil {
			t.Fatalf("recreate %v region at %#x: %v", r.Kind(), r.Start(), err)
		}
	}
	return fresh
}

// checkRestoreProperty maps the same arenas in s and in a space recreated
// from s's live regions, one pair at a time, and fails on the first pair
// placed apart.
func checkRestoreProperty(t *testing.T, s *AddressSpace, sizes []uint64) {
	t.Helper()
	restored := recreate(t, s)
	for i, size := range sizes {
		a, err := s.Mmap(size)
		if err != nil {
			t.Fatal(err)
		}
		b, err := restored.Mmap(size)
		if err != nil {
			t.Fatal(err)
		}
		if a.Start() != b.Start() {
			t.Fatalf("Mmap %d (%d bytes): original at %#x, restored space at %#x", i, size, a.Start(), b.Start())
		}
	}
}

// FuzzArenaPlacement runs a script of Mmap, MapBounce, Munmap and MapAt
// of every kind against an interval oracle. Each op is three bytes:
// op, a, b. Mmap and MapBounce map (b%8+1) pages; Munmap picks live
// region a (only an Mmap arena may go); MapAt maps (b%8+1) pages of kind
// b/8%6 at page a%72-4 from the arena base, so regions below and across
// the base occur. After every op the live regions are the oracle's, and
// every arena landed at the lowest address the oracle allows. At the end
// the restore property holds: a space recreated from the live regions
// places the next arenas where the original does.
func FuzzArenaPlacement(f *testing.F) {
	// The restore probe: arenas of 8, 4, 8, 4 and 16 KB, then the 4th
	// and the 2nd unmapped, in that order.
	f.Add([]byte{0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 3, 2, 3, 0, 2, 1, 0})
	f.Add([]byte{0, 0, 1, 0, 0, 0, 2, 1, 0})                   // a freed arena at the top
	f.Add([]byte{3, 2, 3})                                     // data across the arena base
	f.Add([]byte{3, 0, 0, 0, 0, 0})                            // data below the arena base
	f.Add([]byte{0, 0, 1, 3, 5, 0, 3, 6, 8})                   // MapAt refused, then BSS next to the arena
	f.Add([]byte{1, 0, 7, 0, 0, 0, 0, 0, 2, 2, 1, 0, 1, 0, 0}) // a bounce arena into a freed gap
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 2, 0, 0}) // adjacent freed arenas merge
	f.Add([]byte{3, 20, 40, 0, 0, 7, 2, 0, 0})                 // a stack-kind region; Munmap refuses it
	f.Fuzz(func(t *testing.T, ops []byte) {
		const ps = 4096
		s := NewAddressSpace(Config{PageSize: ps, Phantom: true})
		live := []interval{{StackTop - StackSize, StackTop, Stack}}
		for ; len(ops) >= 3; ops = ops[3:] {
			a, b := ops[1], ops[2]
			size := uint64(b%8+1) * ps
			switch ops[0] % 4 {
			case 0, 1:
				kind, mmap := Mmap, s.Mmap
				if ops[0]%4 == 1 {
					kind, mmap = Bounce, s.MapBounce
				}
				want := placementOracle(live, size)
				r, err := mmap(size)
				if err != nil {
					t.Fatalf("%v of %d bytes: %v", kind, size, err)
				}
				if r.Start() != want {
					t.Fatalf("%v of %d bytes at %#x, the lowest free address is %#x", kind, size, r.Start(), want)
				}
				live = append(live, interval{want, want + size, kind})
			case 2:
				regs := s.Regions()
				r := regs[int(a)%len(regs)]
				if err := s.Munmap(r); (err == nil) != (r.Kind() == Mmap) {
					t.Fatalf("Munmap of a live %v region: %v", r.Kind(), err)
				} else if err == nil {
					live = slices.DeleteFunc(live, func(iv interval) bool { return iv.start == r.Start() })
				}
			case 3:
				start, kind := mmapBase+uint64(a%72)*ps-4*ps, Kind(b/8%6)
				_, err := s.MapAt(start, size, kind)
				if clash := overlapsAny(live, start, start+size); clash != (err != nil) {
					t.Fatalf("MapAt(%#x, %d, %v) over live regions %v: %v", start, size, kind, clash, err)
				}
				if err == nil {
					live = append(live, interval{start, start + size, kind})
				}
			}
			checkLive(t, s, live)
		}
		checkRestoreProperty(t, s, []uint64{ps, 2 * ps, ps, 8 * ps, 3 * ps})
	})
}

// TestRestoredSpacePlacesLikeTheOriginal: a space whose live arenas a
// restore recreated with MapAt places its next arenas, bounce arenas
// included, where the original places them — two freed gaps filled in
// address order, a freed top reused, a bounce arena in the gap below the
// arenas it was mapped before.
func TestRestoredSpacePlacesLikeTheOriginal(t *testing.T) {
	const ps = 4096
	mmaps := func(s *AddressSpace, sizes ...uint64) []*Region {
		var rs []*Region
		for _, size := range sizes {
			r, err := s.Mmap(size)
			if err != nil {
				t.Fatal(err)
			}
			rs = append(rs, r)
		}
		return rs
	}
	offsets := func(s *AddressSpace) []uint64 {
		var off []uint64
		for range 3 {
			r, err := s.Mmap(ps)
			if err != nil {
				t.Fatal(err)
			}
			off = append(off, r.Start()-mmapBase)
		}
		return off
	}

	s := NewAddressSpace(Config{PageSize: ps, Phantom: true})
	rs := mmaps(s, 2*ps, ps, 2*ps, ps, 4*ps)
	s.Munmap(rs[3])
	s.Munmap(rs[1])
	restored := recreate(t, s)
	want := []uint64{0x2000, 0x5000, 0xa000}
	if got := offsets(s); !slices.Equal(got, want) {
		t.Errorf("two freed gaps: original places at offsets %#x, want %#x", got, want)
	}
	if got := offsets(restored); !slices.Equal(got, want) {
		t.Errorf("two freed gaps: restored space places at offsets %#x, want %#x", got, want)
	}

	s = NewAddressSpace(Config{PageSize: ps, Phantom: true})
	rs = mmaps(s, ps, ps)
	s.Munmap(rs[1])
	checkRestoreProperty(t, s, []uint64{2 * ps})

	// A fresh rank maps its bounce arena before its data arenas; a
	// restored one gets the arenas first and the bounce arena after.
	s = NewAddressSpace(Config{PageSize: ps, Phantom: true})
	if _, err := s.MapBounce(4 * ps); err != nil {
		t.Fatal(err)
	}
	mmaps(s, ps, 2*ps)
	restored = NewAddressSpace(Config{PageSize: ps, Phantom: true})
	for _, r := range s.Regions() {
		if r.Kind() == Mmap {
			restored.MapAt(r.Start(), r.Size(), r.Kind())
		}
	}
	b, err := restored.MapBounce(4 * ps)
	if err != nil {
		t.Fatal(err)
	}
	if b.Start() != mmapBase {
		t.Fatalf("restored bounce arena at %#x, fresh one at %#x", b.Start(), mmapBase)
	}
}
