package kernels

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/mem"
	"repro/internal/mpi"
)

// DistPut is the workload that makes the §4.2 NIC-vs-mprotect conflict
// *matter*: a ring of ranks exchanging state through one-sided RDMA
// writes (mpi.Put). Each rank owns a window W and an accumulator A.
// Every iteration the CPU folds the window into the accumulator
// (ordinary tracked writes); every PutEvery-th iteration each rank Puts
// a function of its accumulator into its right neighbour's window.
//
// The window is *only ever written by the NIC*. Under bounce-buffer
// delivery those writes fault and the tracker sees them; under naive
// Direct delivery they are silent — every incremental checkpoint omits
// the window, and a restore replays a stale window that the subsequent
// sweeps fold into the accumulator, corrupting the answer end to end.
// (The halo-exchanging kernels are immune by accident: they re-receive
// halos before every read. One-sided windows have no such re-send.)
//
// Timing contract: a put injected at an iteration boundary lands one
// transfer time later. At a boundary with no checkpoint the next sweep
// runs synchronously, so the put is first read by the *second* sweep
// after it. At a checkpoint boundary the next sweep waits for the line:
// the drain protocol lands every in-flight put before the cut, and the
// commit pause outlasts a landing in every mode, so the *next* sweep
// reads it. The computation is therefore a pure function of the
// iteration and checkpoint schedule. A restore replays the same
// schedule, which is what replay equivalence relies on, and it is why
// autonomic.Reference keeps CkptEvery, Sink and RDMA.
type DistPut struct {
	loop
	world *mpi.World

	pages    int // pages per buffer (window and accumulator alike)
	putEvery int
	arenas   []*mem.Region

	w, a []float64 // sweep's and putPayload's window and accumulator values
}

// NewDistPut builds the ring over the given world: per rank one arena of
// 2*pages pages (window first, accumulator second). putEvery must be
// >= 1; pages >= 1. The world's address spaces must be backed.
func NewDistPut(eng *des.Engine, world *mpi.World, pages, putEvery int, seed float64, computeTime des.Time) (*DistPut, error) {
	return newDistPut(eng, world, false, pages, putEvery, 0, seed, computeTime)
}

// AttachDistPut rebuilds the ring over restored address spaces, resuming
// at the given completed-iteration count.
func AttachDistPut(eng *des.Engine, world *mpi.World, pages, putEvery int, computeTime des.Time, iter int) (*DistPut, error) {
	return newDistPut(eng, world, true, pages, putEvery, iter, 0, computeTime)
}

// newDistPut builds the ring at iteration iter over each rank space's
// arena, restored or fresh. A fresh window holds seed + rank + j·1e-3 at
// element j, a fresh accumulator zero.
func newDistPut(eng *des.Engine, world *mpi.World, restored bool,
	pages, putEvery, iter int, seed float64, computeTime des.Time) (*DistPut, error) {
	if pages < 1 || putEvery < 1 {
		return nil, fmt.Errorf("kernels: dist put pages %d / putEvery %d", pages, putEvery)
	}
	// Window and accumulator are float64 arrays in all but type.
	sp := world.Rank(0).Space()
	if err := checkElems(sp, pages); err != nil {
		return nil, err
	}
	n := pages * int(sp.PageSize()) / 8
	d := &DistPut{
		world: world, pages: pages, putEvery: putEvery,
		w: make([]float64, n), a: make([]float64, n),
	}
	if err := d.init(eng, computeTime, iter, d.sweeps, d.inject); err != nil {
		return nil, err
	}
	for i := 0; i < world.Size(); i++ {
		sp := world.Rank(i).Space()
		src := freshArenas(sp)
		if restored {
			src = restoredArenas(sp)
		}
		arena, err := src.region(uint64(2*pages) * sp.PageSize())
		if err == nil {
			err = src.bound()
		}
		if err != nil {
			return nil, fmt.Errorf("kernels: put arena for rank %d: %w", i, err)
		}
		d.arenas = append(d.arenas, arena)
		if restored {
			continue
		}
		vals := make([]float64, d.vals())
		for j := range vals {
			vals[j] = seed + float64(i) + float64(j)*1e-3
		}
		if err := d.writeVals(i, d.wAddr(i), vals); err != nil {
			return nil, err
		}
		for j := range vals {
			vals[j] = 0
		}
		if err := d.writeVals(i, d.aAddr(i), vals); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// vals is the float64 count of one buffer.
func (d *DistPut) vals() int { return len(d.a) }

// wAddr returns rank i's window base; aAddr its accumulator base.
func (d *DistPut) wAddr(i int) uint64 { return d.arenas[i].Start() }
func (d *DistPut) aAddr(i int) uint64 {
	return d.arenas[i].Start() + uint64(d.pages)*d.world.Rank(i).Space().PageSize()
}

// readVals decodes the buffer of rank i at addr into dst.
func (d *DistPut) readVals(i int, addr uint64, dst []float64) error {
	return loadFloats(d.world.Rank(i).Space(), addr, dst)
}

func (d *DistPut) writeVals(i int, addr uint64, vals []float64) error {
	return storeFloats(d.world.Rank(i).Space(), addr, vals)
}

// sweeps begins an iteration: one sweep (CPU: A += 0.5*W + 1e-3) across
// all ranks, then the compute time.
func (d *DistPut) sweeps() {
	for i := 0; i < d.world.Size(); i++ {
		if err := d.sweep(i); err != nil {
			panic(fmt.Sprintf("kernels: put sweep: %v", err))
		}
	}
	d.charge()
}

// inject ends every PutEvery-th iteration: each rank Puts into its right
// neighbour's window. The puts leave *before* the iteration hook fires,
// so a checkpoint trigger finds them genuinely in flight: that is the
// traffic the drain protocol exists to land.
func (d *DistPut) inject() {
	n := d.world.Size()
	if n == 1 || d.iter%d.putEvery != 0 {
		return
	}
	for i := 0; i < n; i++ {
		payload, err := d.putPayload(i)
		if err != nil {
			panic(fmt.Sprintf("kernels: put payload: %v", err))
		}
		dst := (i + 1) % n
		d.world.Rank(i).Put(dst, d.wAddr(dst), payload, nil)
	}
}

// sweep folds rank i's window into its accumulator with ordinary
// (tracked) CPU writes.
func (d *DistPut) sweep(i int) error {
	w, a := d.w, d.a
	if err := d.readVals(i, d.wAddr(i), w); err != nil {
		return err
	}
	if err := d.readVals(i, d.aAddr(i), a); err != nil {
		return err
	}
	for j := range a {
		a[j] += 0.5*w[j] + 1e-3
	}
	return d.writeVals(i, d.aAddr(i), a)
}

// putPayload derives the bytes rank i sends into its neighbour's window:
// a pure function of the accumulator, so the whole computation is
// state-determined and replays bit-exactly from any consistent line.
// The bytes are the accumulator row's own (its wire form), valid until
// the next call; Put copies them at injection.
func (d *DistPut) putPayload(i int) ([]byte, error) {
	a := d.a
	if err := d.readVals(i, d.aAddr(i), a); err != nil {
		return nil, err
	}
	for j, v := range a {
		a[j] = 0.5*v + 1
	}
	return view[byte](a), nil
}

// Gather returns the concatenated accumulators of all ranks — the
// verification solution.
func (d *DistPut) Gather() ([]float64, error) {
	n := d.vals()
	out := make([]float64, n*d.world.Size())
	for i := 0; i < d.world.Size(); i++ {
		if err := d.readVals(i, d.aAddr(i), out[i*n:(i+1)*n]); err != nil {
			return nil, err
		}
	}
	return out, nil
}
