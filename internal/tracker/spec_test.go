package tracker

import (
	"testing"

	"repro/internal/ckptspec"
	"repro/internal/des"
	"repro/internal/mem"
)

// TestApplySpecExcludesRecomputable is the tracker half of the ckptset
// regression: a region Spec.Apply marked is never protected (its writes
// take no faults and never enter the IWS), and marking an already
// marked region stays idempotent.
func TestApplySpecExcludesRecomputable(t *testing.T) {
	eng := des.NewEngine()
	sp := mem.NewAddressSpace(mem.Config{PageSize: pageSize, Phantom: true})
	grid, _ := sp.Mmap(4 * pageSize)
	scratch, _ := sp.Mmap(2 * pageSize)
	tr, err := New(eng, sp, Options{Timeslice: des.Second})
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
	}
	ex := spec.Apply(bindings)
	if len(ex) != 1 || ex[0].Region != scratch {
		t.Fatalf("Apply marked %+v, want just K.scratch", ex)
	}
	// Idempotent: applying again (marking a marked region) is a no-op
	// with the same result.
	if ex2 := spec.Apply(bindings); len(ex2) != 1 || ex2[0].Region != scratch {
		t.Fatalf("re-apply = %+v", ex2)
	}
	var none *ckptspec.Spec
	if got := none.Apply(bindings); got != nil {
		t.Fatalf("nil spec marked %+v", got)
	}

	tr.Start()
	eng.Schedule(100*des.Millisecond, func() {
		if err := sp.WriteRange(grid.Start(), 4*pageSize); err != nil {
			t.Error(err)
		}
		if err := sp.WriteRange(scratch.Start(), 2*pageSize); err != nil {
			t.Error(err)
		}
	})
	eng.Run(2 * des.Second)
	tr.Stop()

	ss := tr.Samples()
	if len(ss) == 0 {
		t.Fatal("no samples")
	}
	// Only the grid's pages fault into the IWS; the scratch region was
	// never protected.
	if ss[0].IWSPages != 4 || ss[0].Faults != 4 {
		t.Fatalf("IWS = %d pages, %d faults; want 4, 4", ss[0].IWSPages, ss[0].Faults)
	}
}
