package kernels

import (
	"testing"

	"repro/internal/des"
	"repro/internal/mem"
	"repro/internal/mpi"
)

func putWorld(t *testing.T, n int, mode mpi.DeliveryMode) (*des.Engine, *mpi.World) {
	t.Helper()
	eng := des.NewEngine()
	spaces := make([]*mem.AddressSpace, n)
	for i := range spaces {
		spaces[i] = mem.NewAddressSpace(mem.Config{PageSize: 4096})
	}
	w, err := mpi.NewWorld(eng, mpi.QsNet(), mode, spaces)
	if err != nil {
		t.Fatal(err)
	}
	return eng, w
}

// emulateDistPut is the serial model of the ring without checkpoints: a
// put injected at boundary k lands during iteration k+1's compute, so
// it is visible from sweep k+2 on.
func emulateDistPut(ranks, pages, putEvery, iters int, seed float64) []float64 {
	vals := pages * 4096 / 8
	w := make([][]float64, ranks)
	a := make([][]float64, ranks)
	for i := range w {
		w[i] = make([]float64, vals)
		a[i] = make([]float64, vals)
		for j := range w[i] {
			w[i][j] = seed + float64(i) + float64(j)*1e-3
		}
	}
	landing := make(map[int][][]float64) // iteration whose compute the put lands in -> new windows
	for k := 1; k <= iters; k++ {
		for i := range a {
			for j := range a[i] {
				a[i][j] += 0.5*w[i][j] + 1e-3
			}
		}
		if nw, ok := landing[k]; ok {
			w = nw
		}
		if ranks > 1 && k%putEvery == 0 {
			nw := make([][]float64, ranks)
			for i := range nw {
				nw[i] = append([]float64(nil), w[i]...)
			}
			for i := range a {
				dst := (i + 1) % ranks
				for j := range a[i] {
					nw[dst][j] = 0.5*a[i][j] + 1
				}
			}
			landing[k+1] = nw
		}
	}
	var out []float64
	for i := range a {
		out = append(out, a[i]...)
	}
	return out
}

func TestDistPutMatchesSerialModel(t *testing.T) {
	const (
		ranks    = 3
		pages    = 1
		putEvery = 2
		iters    = 9
		seed     = 1.5
	)
	eng, w := putWorld(t, ranks, mpi.Bounce)
	d, err := NewDistPut(eng, w, pages, putEvery, seed, 50*des.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	done := false
	d.Run(iters, nil, func() { done = true })
	eng.Run(des.MaxTime)
	if !done {
		t.Fatal("run did not complete")
	}
	got, err := d.Gather()
	if err != nil {
		t.Fatal(err)
	}
	want := emulateDistPut(ranks, pages, putEvery, iters, seed)
	if len(got) != len(want) {
		t.Fatalf("gather length %d, want %d", len(got), len(want))
	}
	for j := range got {
		if got[j] != want[j] {
			t.Fatalf("value %d: got %v, want %v (bit-exact)", j, got[j], want[j])
		}
	}
}

// The window pages are only ever NIC-written: under the registered-
// memory Direct model every put is silent, under Bounce every put
// faults. Same seed, same program — divergent dirty sets.
func TestDistPutDirectVsBounceDirtySets(t *testing.T) {
	run := func(mode mpi.DeliveryMode, rdma bool) (faults, silent uint64, gather []float64) {
		eng, w := putWorld(t, 2, mode)
		d, err := NewDistPut(eng, w, 1, 1, 2.0, 50*des.Microsecond)
		if err != nil {
			t.Fatal(err)
		}
		if rdma {
			for i := 0; i < w.Size(); i++ {
				w.Rank(i).RegisterAllData()
			}
		}
		// Protect everything, as a tracker/checkpointer would.
		for i := 0; i < w.Size(); i++ {
			mem.NewDirtyLog(w.Rank(i).Space()).Open()
		}
		d.Run(6, nil, nil)
		eng.Run(des.MaxTime)
		for i := 0; i < w.Size(); i++ {
			silent += w.Rank(i).Stats().SilentDirtyBytes
			faults += w.Rank(i).Space().Faults()
		}
		gather, err = d.Gather()
		if err != nil {
			t.Fatal(err)
		}
		return faults, silent, gather
	}

	bFaults, bSilent, bVals := run(mpi.Bounce, false)
	dFaults, dSilent, dVals := run(mpi.Direct, true)

	if bSilent != 0 {
		t.Fatalf("bounce run has %d silent bytes, want 0", bSilent)
	}
	if dSilent == 0 {
		t.Fatal("direct run has no silent bytes — the under-count vanished")
	}
	if dFaults >= bFaults {
		t.Fatalf("direct faults %d >= bounce faults %d: DMA writes should be invisible", dFaults, bFaults)
	}
	// Same seed, same computation: the *answers* agree even though the
	// dirty sets diverge — the corruption only surfaces on restore.
	if len(bVals) != len(dVals) {
		t.Fatal("gather length mismatch")
	}
	for j := range bVals {
		if bVals[j] != dVals[j] {
			t.Fatalf("live answers diverged at %d: %v vs %v", j, bVals[j], dVals[j])
		}
	}
}

func TestAttachDistPutResumesState(t *testing.T) {
	eng, w := putWorld(t, 2, mpi.Bounce)
	d, err := NewDistPut(eng, w, 1, 2, 3.0, 50*des.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	// Stop at a non-put boundary (3 % putEvery != 0) so no transfer is
	// in flight across the pause and the resumed timeline matches the
	// continuous one.
	d.Run(3, nil, nil)
	eng.Run(des.MaxTime)

	// Re-attach over the same (live) spaces and keep going.
	d2, err := AttachDistPut(eng, w, 1, 2, 50*des.Microsecond, d.Iter())
	if err != nil {
		t.Fatal(err)
	}
	if d2.Iter() != 3 {
		t.Fatalf("attached at iter %d, want 3", d2.Iter())
	}
	d2.Run(8, nil, nil)
	eng.Run(des.MaxTime)
	got, err := d2.Gather()
	if err != nil {
		t.Fatal(err)
	}
	want := emulateDistPut(2, 1, 2, 8, 3.0)
	for j := range got {
		if got[j] != want[j] {
			t.Fatalf("resumed value %d: got %v, want %v", j, got[j], want[j])
		}
	}
}

// TestDistPutSweepDoesNotAllocate: the sweep decodes window and
// accumulator into the ring's own scratch and encodes straight into the
// accumulator's pages; the put payload is that scratch row's own bytes.
func TestDistPutSweepDoesNotAllocate(t *testing.T) {
	eng, w := putWorld(t, 2, mpi.Bounce)
	d, err := NewDistPut(eng, w, 2, 1, 0.5, des.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() {
		if err := d.sweep(1); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("DistPut.sweep: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() {
		if _, err := d.putPayload(1); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("DistPut.putPayload: %v allocs, want 0", n)
	}
}
