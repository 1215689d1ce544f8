package ckpt

import (
	"bytes"
	"testing"

	"repro/internal/des"
	"repro/internal/mem"
	"repro/internal/storage"
)

// donorFor is a dead space for a restore: every region of layout mapped
// at its address, minus lack, plus an arena at extra, all filled with
// 0xAA.
func donorFor(t *testing.T, layout []*mem.Region, lack *mem.Region, extra uint64) *mem.AddressSpace {
	t.Helper()
	d := mem.NewAddressSpace(mem.Config{PageSize: pageSize})
	fill := func(r *mem.Region) {
		if err := d.Write(r.Start(), bytes.Repeat([]byte{0xAA}, int(r.Size()))); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range layout {
		if r == lack {
			continue
		}
		m, err := d.MapAt(r.Start(), r.Size(), r.Kind())
		if err != nil {
			t.Fatal(err)
		}
		fill(m)
	}
	m, err := d.MapAt(extra, 2*pageSize, mem.Mmap)
	if err != nil {
		t.Fatal(err)
	}
	fill(m)
	return d
}

// samePages fails unless a and b hold the same regions, page for page:
// the same bytes, and the same pages reported unwritten.
func samePages(t *testing.T, a, b *mem.AddressSpace) {
	t.Helper()
	if a.Digest(nil) != b.Digest(nil) {
		t.Errorf("digest %#x, want %#x", a.Digest(nil), b.Digest(nil))
	}
	ra, rb := a.Regions(), b.Regions()
	if len(ra) != len(rb) {
		t.Fatalf("%d regions, want %d", len(ra), len(rb))
	}
	for i, r := range ra {
		for idx := range r.Pages() {
			if (r.PeekPage(idx) == nil) != (rb[i].PeekPage(idx) == nil) {
				t.Errorf("region at %#x page %d: written %v, want %v", r.Start(), idx, r.PeekPage(idx) != nil, rb[i].PeekPage(idx) != nil)
			}
		}
	}
}

// TestInheritRestoreMatchesFresh: a restore into a dead space's slabs,
// each pre-filled with 0xAA, gives the space a restore without one
// gives — the same digest, the same bytes, the same unwritten pages —
// over a chain that elides zero pages (never written, and written to
// zero), keeps a recomputable region in its table but none of its
// pages, and maps a region after its base that the dead space lacks,
// while the dead space holds a region the chain does not. The dead space
// is emptied.
func TestInheritRestoreMatchesFresh(t *testing.T) {
	eng := des.NewEngine()
	sp := mem.NewAddressSpace(mem.Config{PageSize: pageSize})
	store := storage.NewMemStore()
	c, err := NewCheckpointer(eng, sp, Options{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := sp.Mmap(4 * pageSize)
	scratch, _ := sp.Mmap(3 * pageSize)
	scratch.MarkRecomputable()
	c.Start()
	data := bytes.Repeat([]byte{5}, pageSize)
	zero := make([]byte, pageSize)
	write := func(addr uint64, b []byte) {
		if err := sp.Write(addr, b); err != nil {
			t.Fatal(err)
		}
	}
	write(a.Start(), data)
	write(a.Start()+pageSize, zero)
	write(scratch.Start(), data)
	if _, err := c.Checkpoint(); err != nil { // full: a's pages 2, 3 never written
		t.Fatal(err)
	}
	late, _ := sp.Mmap(2 * pageSize)
	write(late.Start(), data)
	write(a.Start()+2*pageSize, data)
	write(a.Start(), zero)
	res, err := c.Checkpoint() // incremental
	if err != nil {
		t.Fatal(err)
	}
	c.Stop()

	fresh, _, err := replayChain(store, 0, res.Seq, nil)
	if err != nil {
		t.Fatal(err)
	}
	dead := donorFor(t, []*mem.Region{a, scratch, late}, late, 0x7000_0000_0000)
	inherited, _, err := replayChain(store, 0, res.Seq, dead)
	if err != nil {
		t.Fatal(err)
	}
	samePages(t, inherited, fresh)
	if n := len(dead.Regions()); n != 0 {
		t.Errorf("the dead space keeps %d regions", n)
	}
	// A restore recreates the recomputable region unmarked and zero.
	unwatched := func(r *mem.Region) bool { return !r.Kind().Checkpointable() || r.Start() == scratch.Start() }
	if inherited.Digest(unwatched) != sp.Digest(unwatched) {
		t.Error("the restore does not hold the checkpointed state")
	}
}

// TestInheritAcrossAbandonedCandidate: a recovery whose newest line is
// torn at rank 1 restores rank 0 into its dead space's slabs, abandons
// the line, and restores the older one into what the abandoned attempt
// left in dead — with the same result as a recovery with no dead spaces.
// Every dead space ends emptied.
func TestInheritAcrossAbandonedCandidate(t *testing.T) {
	store := storage.NewMemStore()
	eng := des.NewEngine()
	var layouts [2][]*mem.Region
	var cps [2]*Checkpointer
	for r := range cps {
		sp := mem.NewAddressSpace(mem.Config{PageSize: pageSize})
		var err error
		if cps[r], err = NewCheckpointer(eng, sp, Options{Rank: r, Store: store}); err != nil {
			t.Fatal(err)
		}
		a, _ := sp.Mmap(3 * pageSize)
		layouts[r] = []*mem.Region{a}
		cps[r].Start()
	}
	for line := 0; line < 2; line++ {
		for r, c := range cps {
			page := bytes.Repeat([]byte{byte(10*r + line + 1)}, pageSize)
			if err := c.Space().Write(layouts[r][0].Start()+uint64(line)*pageSize, page); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := store.Put(SegmentKey(1, 1), []byte("torn")); err != nil {
		t.Fatal(err)
	}

	want, ok, err := RestoreLatest(store, 2, false, nil)
	if err != nil || !ok || want.Seq != 0 {
		t.Fatalf("RestoreLatest = line %d, %v, %v; want line 0", want.Seq, ok, err)
	}
	donors := []*mem.AddressSpace{
		donorFor(t, layouts[0], nil, 0x7000_0000_0000),
		donorFor(t, layouts[1], nil, 0x7000_0000_0000),
	}
	dead := []*mem.AddressSpace{donors[0], donors[1]}
	got, ok, err := RestoreLatest(store, 2, false, dead)
	if err != nil || !ok || got.Seq != 0 {
		t.Fatalf("RestoreLatest with dead spaces = line %d, %v, %v; want line 0", got.Seq, ok, err)
	}
	for r := range got.Spaces {
		samePages(t, got.Spaces[r], want.Spaces[r])
	}
	if dead[0] == donors[0] || dead[1] != donors[1] {
		t.Error("dead does not hold the abandoned line's rank 0 space and rank 1's donor")
	}
	for _, d := range append(dead, donors...) {
		if n := len(d.Regions()); n != 0 {
			t.Errorf("a dead space keeps %d regions", n)
		}
	}
}

// TestRemappedArenaRestoresItsZeroPages: an arena freed and mapped again
// at the same address and size between two captures reads zero where
// the new arena was never written, and a restore through the chain must
// too, though the base holds the old arena's pages there: the
// incremental records a region mapped since the last capture whole.
// Only the first page of the new arena is written.
func TestRemappedArenaRestoresItsZeroPages(t *testing.T) {
	eng := des.NewEngine()
	sp := mem.NewAddressSpace(mem.Config{PageSize: pageSize})
	store := storage.NewMemStore()
	c, err := NewCheckpointer(eng, sp, Options{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	old, _ := sp.Mmap(3 * pageSize)
	c.Start()
	if err := sp.Write(old.Start(), bytes.Repeat([]byte{0x11}, int(old.Size()))); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := sp.Munmap(old); err != nil {
		t.Fatal(err)
	}
	arena, _ := sp.Mmap(3 * pageSize)
	if arena.Start() != old.Start() {
		t.Fatalf("the new arena lies at %#x, the old one at %#x", arena.Start(), old.Start())
	}
	if err := sp.Write(arena.Start(), []byte{0x22}); err != nil {
		t.Fatal(err)
	}
	res, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if res.Pages != arena.Pages() {
		t.Errorf("the incremental records %d pages, want the new arena's %d", res.Pages, arena.Pages())
	}
	restored, _, err := replayChain(store, 0, res.Seq, nil)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Digest(nil) != sp.Digest(nil) {
		got := make([]byte, arena.Size())
		restored.Read(arena.Start(), got)
		t.Errorf("the restored arena differs from the live one: its last page reads %#x", got[len(got)-1])
	}
}
