package ckpt

import (
	"testing"

	"repro/internal/ckptspec"
	"repro/internal/des"
	"repro/internal/mem"
	"repro/internal/storage"
)

// TestExcludeDataDroppedButRestored is the spec-exclusion contract:
// a region marked recomputable is never protected or captured, yet it stays
// in every segment's region table so a restore recreates it at its
// original address — zero-filled, ready for a recompute hook.
func TestExcludeDataDroppedButRestored(t *testing.T) {
	eng := des.NewEngine()
	sp := mem.NewAddressSpace(mem.Config{PageSize: 512})
	keep, err := sp.Mmap(2 * 512)
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := sp.Mmap(2 * 512)
	if err != nil {
		t.Fatal(err)
	}
	store := storage.NewMemStore()
	c, err := NewCheckpointer(eng, sp, Options{Store: store, FullEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	scratch.MarkRecomputable()
	scratch.MarkRecomputable() // idempotent
	c.Start()
	defer c.Stop()

	pattern := make([]byte, 512)
	for i := range pattern {
		pattern[i] = byte(i)
	}
	for _, r := range []*mem.Region{keep, scratch} {
		if err := sp.Write(r.Start(), pattern); err != nil {
			t.Fatal(err)
		}
	}
	// The excluded region is unprotected: its write took no fault and
	// left no dirty record. The kept region faulted normally.
	if c.log.Pages(scratch) != nil {
		t.Fatalf("excluded region accumulated dirty pages")
	}
	if rs := c.log.Pages(keep); rs == nil || rs.Count() != 1 {
		t.Fatalf("kept region did not fault")
	}

	// Full capture: only the kept region's pages.
	res, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != Full || res.Pages != keep.Pages() {
		t.Fatalf("full captured %d pages (kind %v), want %d", res.Pages, res.Kind, keep.Pages())
	}
	// Incremental after rewriting both: still only the kept page.
	for _, r := range []*mem.Region{keep, scratch} {
		if err := sp.Write(r.Start(), pattern); err != nil {
			t.Fatal(err)
		}
	}
	res, err = c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != Incremental || res.Pages != 1 {
		t.Fatalf("incremental captured %d pages (kind %v), want 1", res.Pages, res.Kind)
	}

	// Restore recreates BOTH regions — the excluded one zero-filled.
	fresh, _, err := replayChain(store, 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var mmaps int
	for _, r := range fresh.Regions() {
		if r.Kind() == mem.Mmap {
			mmaps++
		}
	}
	if mmaps != 2 {
		t.Fatalf("restored %d mmap regions, want 2", mmaps)
	}
	got := make([]byte, 512)
	if err := fresh.Read(keep.Start(), got); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != pattern[i] {
			t.Fatalf("kept region byte %d = %d, want %d", i, got[i], pattern[i])
		}
	}
	if err := fresh.Read(scratch.Start(), got); err != nil {
		t.Fatalf("excluded region not recreated: %v", err)
	}
	for i := range got {
		if got[i] != 0 {
			t.Fatalf("excluded region byte %d = %d, want 0", i, got[i])
		}
	}
}

// TestCheckpointerApplySpec covers the spec → checkpointer plumbing
// (Spec.Apply marks, the checkpointer's log skips) and that bindings
// absent from the spec stay protected.
func TestCheckpointerApplySpec(t *testing.T) {
	eng := des.NewEngine()
	sp := mem.NewAddressSpace(mem.Config{PageSize: 512})
	grid, _ := sp.Mmap(512)
	scratch, _ := sp.Mmap(512)
	unlisted, _ := sp.Mmap(512)
	c, err := NewCheckpointer(eng, sp, Options{Store: storage.NewMemStore()})
	if err != nil {
		t.Fatal(err)
	}
	spec := &ckptspec.Spec{Package: "p", Regions: []ckptspec.Region{
		{Name: "K.grid", Class: ckptspec.Must, Reason: "live"},
		{Name: "K.scratch", Class: ckptspec.Recomputable, Reason: "scratch"},
	}}
	bindings := []ckptspec.Binding{
		{Name: "K.grid", Region: grid},
		{Name: "K.scratch", Region: scratch},
		{Name: "K.other", Region: unlisted},
	}
	ex := spec.Apply(bindings)
	if len(ex) != 1 || ex[0].Region != scratch {
		t.Fatalf("Apply marked %+v, want just K.scratch", ex)
	}
	// Re-applying is idempotent and a nil spec marks nothing.
	if ex2 := spec.Apply(bindings); len(ex2) != 1 || ex2[0].Region != scratch {
		t.Fatalf("second Apply = %+v", ex2)
	}
	var none *ckptspec.Spec
	if none.Apply(bindings) != nil {
		t.Fatalf("nil spec marked bindings")
	}
	c.Start()
	defer c.Stop()
	res, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	// grid + unlisted captured, scratch dropped.
	if res.Pages != 2 {
		t.Fatalf("full captured %d pages, want 2", res.Pages)
	}
}
