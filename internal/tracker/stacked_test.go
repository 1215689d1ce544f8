package tracker

import (
	"fmt"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/des"
	"repro/internal/mem"
	"repro/internal/storage"
)

// A tracker and a CoW-accounting checkpointer stacked on one space, both
// skipping a region marked recomputable, each on its own clock (1 s alarms, checkpoints at
// 0.7 s and 1.7 s), under a fixed script that crosses every path the
// two share: a page re-protected by the other mechanism faults twice in
// one slice, a region is mapped and two others unmapped dirty (one
// before the full checkpoint, one after it), a NIC write is replayed.
// The delta records a 3 dirty pages and the region mapped since the full
// checkpoint whole (n 5, 2 of them written): a restore must read its
// unwritten pages as zero, whatever an earlier arena at its addresses
// left in the chain.
// Every number is pinned: a change to the shared mechanism that moves
// one must say why.
func TestStackedCountsFixedScript(t *testing.T) {
	eng := des.NewEngine()
	sp := mem.NewAddressSpace(mem.Config{PageSize: pageSize})
	a, _ := sp.Mmap(8 * pageSize)
	b, _ := sp.Mmap(8 * pageSize)
	scratch, _ := sp.Mmap(4 * pageSize)
	h6, _ := sp.Mmap(6 * pageSize)
	h4, _ := sp.Mmap(4 * pageSize)
	c, err := ckpt.NewCheckpointer(eng, sp, ckpt.Options{
		Store:    storage.NewMemStore(),
		Sink:     storage.Model{Name: "slow", Bandwidth: 4 * pageSize}, // 4 pages a second
		TrackCow: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	scratch.MarkRecomputable()
	c.Start()
	tr, _ := New(eng, sp, Options{Timeslice: des.Second})
	tr.Start()

	var results []ckpt.Result
	checkpoint := func() {
		res, err := c.Checkpoint()
		if err != nil {
			t.Error(err)
		}
		results = append(results, res)
	}
	at := func(ms int, fn func()) { eng.Schedule(des.Time(ms)*des.Millisecond, fn) }
	at(100, func() {
		sp.WriteRange(a.Start(), 6*pageSize)
		sp.WriteRange(scratch.Start(), 4*pageSize) // watched by neither: no fault
		sp.WriteRange(h6.Start(), 6*pageSize)
		sp.WriteRange(h4.Start(), 4*pageSize)
	})
	at(400, func() { sp.Munmap(h4) }) // 4 logged pages fall off: excluded
	at(700, checkpoint)               // full: a 8 + b 8 + h6 6; re-protects
	at(800, func() {
		sp.WriteRange(a.Start(), 3*pageSize) // second fault this slice; CoW ×3
		sp.WriteDirect(b.Start(), make([]byte, pageSize))
	})
	at(1300, func() {
		n, _ := sp.Mmap(5 * pageSize) // protected by both on arrival
		sp.WriteRange(n.Start(), 2*pageSize)
		sp.WriteRange(b.Start()+2*pageSize, 4*pageSize)
	})
	at(1500, func() {
		sp.ReplaySilent()
		sp.Munmap(b) // dirty in both: 1 replayed + 4 written
	})
	at(1700, checkpoint) // delta
	at(2200, func() { sp.WriteRange(a.Start()+7*pageSize, pageSize) })
	eng.Run(3 * des.Second)
	tr.Stop()
	c.Stop()

	var got string
	for _, s := range tr.Samples() {
		got += fmt.Sprintf("slice %d: iws %d faults %d excluded %d overhead %d\n",
			s.Index, s.IWSPages, s.Faults, s.ExcludedBytes/pageSize, s.Overhead)
	}
	for _, r := range results {
		got += fmt.Sprintf("seq %d %v: pages %d excluded %d silent %d\n", r.Seq, r.Kind, r.Pages, r.ExcludedPages, r.SilentDirtyPages)
	}
	got += fmt.Sprintf("tracker faults %d overhead %d; space faults %d; cow pages %d",
		tr.TotalFaults(), tr.TotalOverhead(), sp.Faults(), c.Stats().CowCopyBytes/pageSize)
	const want = `slice 0: iws 12 faults 19 excluded 4 overhead 647200
slice 1: iws 2 faults 7 excluded 5 overhead 293600
slice 2: iws 1 faults 1 excluded 0 overhead 219600
seq 0 full: pages 22 excluded 4 silent 0
seq 1 incremental: pages 8 excluded 5 silent 0
tracker faults 27 overhead 1160400; space faults 27; cow pages 3`
	if got != want {
		t.Fatalf("stacked counts moved:\n%s\nwant:\n%s", got, want)
	}
}
