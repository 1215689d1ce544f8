package kernels

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/mpi"
)

// DistWavefront is the pipelined parallelization of the transport sweep —
// how Sweep3D actually runs on a cluster. Unlike the stencil's halo
// exchange (all pairs exchange, then everyone computes), the wavefront's
// dependency is a *chain*: in a downward sweep, rank i cannot start its
// strip until rank i-1 has finished and sent its last computed row; the
// upward sweep reverses the chain. Each iteration performs one sweep in
// each direction, so the communication pattern alternates — exactly the
// direction-reversing structure the Sweep3D workload model approximates
// with its alternation shift.
//
// The distributed result is bit-identical to a sequential two-directional
// wavefront on the equivalent global grid (asserted by tests).
type DistWavefront struct {
	world *mpi.World
	eng   *des.Engine

	nx, rowsPerRank int
	seed            float64
	grids           []*Array // one strip (rows+2 incl. halo rows) per rank

	iter     int
	stopped  bool
	computeT des.Time // per-strip sweep cost
	onIter   func(iter int, done func())
	doneAll  func()
	target   int
}

const (
	tagSweepDown = 201
	tagSweepUp   = 202
)

// NewDistWavefront builds the decomposed sweep over the given world:
// rowsPerRank interior rows plus two halo rows per rank. The left column
// and the global top row hold the inflow boundary value seed.
func NewDistWavefront(eng *des.Engine, world *mpi.World, nx, rowsPerRank int, seed float64, computeTime des.Time) (*DistWavefront, error) {
	if nx < 2 || rowsPerRank < 1 {
		return nil, fmt.Errorf("kernels: dist wavefront %dx%d too small", nx, rowsPerRank)
	}
	if computeTime <= 0 {
		return nil, fmt.Errorf("kernels: compute time must be positive")
	}
	d := &DistWavefront{
		world: world, eng: eng, nx: nx, rowsPerRank: rowsPerRank,
		seed: seed, computeT: computeTime,
	}
	ny := rowsPerRank + 2
	for i := 0; i < world.Size(); i++ {
		a, err := NewArray(world.Rank(i).Space(), nx*ny)
		if err != nil {
			return nil, err
		}
		// Left column seeded everywhere; global top row (rank 0's halo
		// row 0) seeded as the sweep inflow.
		edge := []float64{seed}
		for y := 0; y < ny; y++ {
			if err := a.Write(edge, y*nx); err != nil {
				return nil, err
			}
		}
		if i == 0 {
			row := make([]float64, nx)
			for x := range row {
				row[x] = seed
			}
			if err := a.Write(row, 0); err != nil {
				return nil, err
			}
		}
		d.grids = append(d.grids, a)
	}
	return d, nil
}

// AttachDistWavefront rebuilds the solver over restored address spaces,
// resuming at the given completed-iteration count.
func AttachDistWavefront(eng *des.Engine, world *mpi.World, nx, rowsPerRank int, seed float64, computeTime des.Time, iter int) (*DistWavefront, error) {
	d := &DistWavefront{
		world: world, eng: eng, nx: nx, rowsPerRank: rowsPerRank,
		seed: seed, computeT: computeTime, iter: iter,
	}
	for i := 0; i < world.Size(); i++ {
		a, err := attachSingleGrid(world.Rank(i).Space(), nx*(rowsPerRank+2))
		if err != nil {
			return nil, fmt.Errorf("kernels: rank %d: %w", i, err)
		}
		d.grids = append(d.grids, a)
	}
	return d, nil
}

// Iter returns the completed iteration count.
func (d *DistWavefront) Iter() int { return d.iter }

// Stop abandons the computation (failure path): pending events become
// no-ops.
func (d *DistWavefront) Stop() { d.stopped = true }

// Run executes iterations until target, with the same hook contract as
// DistStencil.Run.
func (d *DistWavefront) Run(target int, onIter func(iter int, done func()), onDone func()) {
	d.target = target
	d.onIter = onIter
	d.doneAll = onDone
	d.iterate()
}

// rowAddr returns the address of local row y in rank i's grid.
func (d *DistWavefront) rowAddr(i, y int) uint64 {
	return d.grids[i].base + uint64(y*d.nx*8)
}

// rowBytes reads local row y of rank i as raw bytes.
func (d *DistWavefront) rowBytes(i, y int) []byte {
	buf := make([]byte, d.nx*8)
	if err := d.grids[i].space.Read(d.rowAddr(i, y), buf); err != nil {
		panic(fmt.Sprintf("kernels: wavefront row read: %v", err))
	}
	return buf
}

// sweepStrip updates rank i's interior rows in the given direction using
// the already-updated upwind halo row — the Gauss-Seidel-style transport
// update of Wavefront.sweepFrom, restricted to one strip.
func (d *DistWavefront) sweepStrip(i int, down bool) {
	a := d.grids[i]
	ny := d.rowsPerRank + 2
	prev := make([]float64, d.nx)
	cur := make([]float64, d.nx)
	ys := make([]int, 0, d.rowsPerRank)
	if down {
		for y := 1; y <= d.rowsPerRank; y++ {
			ys = append(ys, y)
		}
		if err := a.Read(prev, 0); err != nil {
			panic(err)
		}
	} else {
		for y := d.rowsPerRank; y >= 1; y-- {
			ys = append(ys, y)
		}
		if err := a.Read(prev, (ny-1)*d.nx); err != nil {
			panic(err)
		}
	}
	for _, y := range ys {
		if err := a.Read(cur, y*d.nx); err != nil {
			panic(err)
		}
		if down {
			for x := 1; x < d.nx; x++ {
				cur[x] = 0.5*cur[x-1] + 0.5*prev[x] + 0.01
			}
		} else {
			for x := d.nx - 2; x >= 0; x-- {
				cur[x] = 0.5*cur[x+1] + 0.5*prev[x] + 0.01
			}
		}
		if err := a.Write(cur, y*d.nx); err != nil {
			panic(err)
		}
		copy(prev, cur)
	}
}

// iterate performs one iteration: a pipelined downward sweep (rank 0
// first) followed by a pipelined upward sweep (rank n-1 first).
func (d *DistWavefront) iterate() {
	if d.stopped {
		return
	}
	if d.iter >= d.target {
		if d.doneAll != nil {
			d.doneAll()
		}
		return
	}
	d.sweepChain(true, 0, func() {
		d.sweepChain(false, d.world.Size()-1, func() {
			d.iter++
			next := func() {
				if !d.stopped {
					d.iterate()
				}
			}
			if d.onIter != nil {
				d.onIter(d.iter, next)
				return
			}
			next()
		})
	})
}

// sweepChain runs one directional sweep down (or up) the rank chain:
// each rank computes after its upwind neighbour's boundary row arrives,
// then forwards its own boundary row.
func (d *DistWavefront) sweepChain(down bool, rank int, done func()) {
	if d.stopped {
		return
	}
	n := d.world.Size()
	ny := d.rowsPerRank + 2
	// Compute this rank's strip, charging the per-strip cost.
	d.sweepStrip(rank, down)
	d.eng.After(d.computeT, func() {
		if d.stopped {
			return
		}
		var next int
		var tag int
		var sendRow, recvRow int
		if down {
			next, tag = rank+1, tagSweepDown
			sendRow, recvRow = d.rowsPerRank, 0
		} else {
			next, tag = rank-1, tagSweepUp
			sendRow, recvRow = 1, ny-1
		}
		if next < 0 || next >= n {
			done()
			return
		}
		// Deliver the boundary row into the downwind rank's halo, then
		// continue the chain there.
		d.world.Rank(next).Recv(rank, tag, d.rowAddr(next, recvRow), func(mpi.Message) {
			if d.stopped {
				return
			}
			d.sweepChain(down, next, done)
		})
		d.world.Rank(rank).SendData(next, tag, d.rowBytes(rank, sendRow), nil)
	})
}

// Gather assembles the global interior (owned rows, top to bottom).
func (d *DistWavefront) Gather() ([]float64, error) {
	var out []float64
	row := make([]float64, d.nx)
	for i := range d.grids {
		for y := 1; y <= d.rowsPerRank; y++ {
			if err := d.grids[i].Read(row, y*d.nx); err != nil {
				return nil, err
			}
			out = append(out, row...)
		}
	}
	return out, nil
}

// WavefrontReference replays the same two-directional sweep sequentially
// on plain slices over the equivalent global grid and returns its
// interior after iters iterations.
//
//lint:ignore deadexport reference oracle the distributed-wavefront tests compare against
func WavefrontReference(nx, rowsPerRank, ranks, iters int, seed float64) []float64 {
	nyG := ranks*rowsPerRank + 2
	v := make([]float64, nx*nyG)
	for y := 0; y < nyG; y++ {
		v[y*nx] = seed
	}
	for x := 0; x < nx; x++ {
		v[x] = seed
	}
	for it := 0; it < iters; it++ {
		// Downward sweep over global interior rows.
		for y := 1; y <= ranks*rowsPerRank; y++ {
			for x := 1; x < nx; x++ {
				v[y*nx+x] = 0.5*v[y*nx+x-1] + 0.5*v[(y-1)*nx+x] + 0.01
			}
		}
		// Upward sweep (reads the global bottom halo row, which is
		// never written — it stays at its initial value).
		for y := ranks * rowsPerRank; y >= 1; y-- {
			for x := nx - 2; x >= 0; x-- {
				v[y*nx+x] = 0.5*v[y*nx+x+1] + 0.5*v[(y+1)*nx+x] + 0.01
			}
		}
	}
	var out []float64
	for y := 1; y <= ranks*rowsPerRank; y++ {
		out = append(out, v[y*nx:(y+1)*nx]...)
	}
	return out
}
