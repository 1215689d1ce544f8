package kernels

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/mem"
	"repro/internal/mpi"
)

// DistStencil is a genuinely distributed Jacobi solve: the global grid is
// decomposed row-wise across MPI ranks, and every iteration exchanges
// halo rows as real payload-carrying messages through the simulated
// interconnect before sweeping. The payload bytes land in each rank's
// grid memory through the bounce-buffer copy path, taking ordinary write
// faults — so trackers and checkpointers observe the communication
// exactly as the paper's instrumentation observed Sage's (§4.2), and a
// coordinated checkpoint taken at the post-sweep barrier is consistent
// (no in-flight messages).
//
// The decomposition is exact: after any number of iterations the
// distributed solution is bit-identical to a single-rank Stencil2D on the
// equivalent global grid (asserted by tests).
type DistStencil struct {
	loop
	world *mpi.World

	nx, rowsPerRank int
	grids           []*Stencil2D

	// halos counts the halo receives of this iteration still
	// outstanding; arrived, bound once, is every halo's arrival.
	halos   int
	arrived func(mpi.Message)
}

// tags for halo messages: from above (row arrives at local row 0) and
// from below (arrives at local row ny-1).
const (
	tagFromAbove = 101
	tagFromBelow = 102
)

// NewDistStencil builds the decomposed solver over the given world: one
// strip of rowsPerRank interior rows (plus two halo rows) per rank. The
// world's address spaces must be backed. computeTime is the virtual time
// one sweep takes (the DES has no implicit cost for host computation).
func NewDistStencil(eng *des.Engine, world *mpi.World, nx, rowsPerRank int, boundary float64, computeTime des.Time) (*DistStencil, error) {
	return newDistStencil(eng, world, false, nx, rowsPerRank, 0, boundary, computeTime)
}

// AttachDistStencil rebuilds the solver over restored address spaces (one
// per rank of the world), resuming at the given completed-iteration
// count.
func AttachDistStencil(eng *des.Engine, world *mpi.World, nx, rowsPerRank int, computeTime des.Time, iter int) (*DistStencil, error) {
	return newDistStencil(eng, world, true, nx, rowsPerRank, iter, 0, computeTime)
}

// newDistStencil checks the shape, binds the iteration loop at iter and
// the halo arrival callback, then builds each rank's strip over its
// space's arenas, restored or fresh.
func newDistStencil(eng *des.Engine, world *mpi.World, restored bool,
	nx, rowsPerRank, iter int, boundary float64, computeTime des.Time) (*DistStencil, error) {
	if nx < 3 || rowsPerRank < 1 {
		return nil, fmt.Errorf("kernels: dist stencil %dx%d too small", nx, rowsPerRank)
	}
	d := &DistStencil{world: world, nx: nx, rowsPerRank: rowsPerRank}
	if err := d.init(eng, computeTime, iter, d.exchange, nil); err != nil {
		return nil, err
	}
	d.arrived = func(mpi.Message) {
		if d.stopped {
			return
		}
		if d.halos--; d.halos == 0 {
			d.sweep()
		}
	}
	for i := 0; i < world.Size(); i++ {
		src := freshArenas(world.Rank(i).Space())
		if restored {
			src = restoredArenas(world.Rank(i).Space())
		}
		g, err := newStencil2D(src, nx, rowsPerRank+2, iter, boundary)
		if err == nil {
			err = src.bound()
		}
		if err != nil {
			return nil, fmt.Errorf("kernels: rank %d: %w", i, err)
		}
		d.grids = append(d.grids, g)
		if restored {
			continue
		}
		// Interior halo rows start at zero like the global interior;
		// newStencil2D seeded them with the boundary value. They are
		// overwritten by the first exchange before any read, except on
		// the outermost ranks where they *are* the global boundary.
		zero := make([]float64, nx)
		zero[0], zero[nx-1] = boundary, boundary
		if i != 0 {
			if err := g.SetRow(0, zero); err != nil {
				return nil, err
			}
		}
		if i != world.Size()-1 {
			if err := g.SetRow(rowsPerRank+1, zero); err != nil {
				return nil, err
			}
		}
	}
	return d, nil
}

// rowBytes returns local row y of rank i's current buffer as raw bytes:
// the grid's storage itself, which SendData copies at injection — the
// one copy a halo row makes.
func (d *DistStencil) rowBytes(i, y int) []byte {
	run, err := d.grids[i].Cur().space.LoadRun(d.rowAddr(i, y), uint64(d.nx)*8)
	if err != nil {
		panic(fmt.Sprintf("kernels: halo read: %v", err))
	}
	b, _ := run.Next()
	return b
}

// rowAddr returns the address of local row y in rank i's current buffer.
func (d *DistStencil) rowAddr(i, y int) uint64 {
	return d.grids[i].Cur().base + uint64(y*d.nx*8)
}

// exchange begins an iteration: every rank's halo exchange, then the
// sweep once the last halo has landed.
func (d *DistStencil) exchange() {
	n := d.world.Size()
	ny := d.rowsPerRank + 2
	// Every rank but the last expects a halo from below, every rank but
	// the first one from above.
	d.halos = 2 * (n - 1)
	// Post receives first (destination: the current buffer's halo rows),
	// then inject sends.
	for i := 0; i < n; i++ {
		r := d.world.Rank(i)
		if i > 0 {
			r.Recv(i-1, tagFromAbove, d.rowAddr(i, 0), d.arrived)
		}
		if i < n-1 {
			r.Recv(i+1, tagFromBelow, d.rowAddr(i, ny-1), d.arrived)
		}
	}
	for i := 0; i < n; i++ {
		r := d.world.Rank(i)
		if i > 0 {
			// My top interior row becomes the upper neighbour's
			// bottom halo.
			r.SendData(i-1, tagFromBelow, d.rowBytes(i, 1), nil)
		}
		if i < n-1 {
			r.SendData(i+1, tagFromAbove, d.rowBytes(i, ny-2), nil)
		}
	}
	if n == 1 {
		// Single rank: no exchange.
		d.sweep()
	}
}

// sweep runs every rank's local Jacobi step after the exchange and hands
// the iteration back to the loop.
func (d *DistStencil) sweep() {
	for _, g := range d.grids {
		if err := g.Step(); err != nil {
			panic(fmt.Sprintf("kernels: dist sweep: %v", err))
		}
	}
	d.charge()
}

// Gather assembles the global interior (all owned rows, top to bottom)
// into a single slice of nx*(ranks*rowsPerRank) values.
func (d *DistStencil) Gather() ([]float64, error) {
	out := make([]float64, d.nx*d.rowsPerRank*len(d.grids))
	row := out
	for i := range d.grids {
		for y := 1; y <= d.rowsPerRank; y++ {
			if err := d.grids[i].Cur().Read(row[:d.nx], y*d.nx); err != nil {
				return nil, err
			}
			row = row[d.nx:]
		}
	}
	return out, nil
}

// GlobalReference runs the equivalent single-rank stencil for iters
// iterations and returns its interior, for equivalence checks.
//
//lint:ignore deadexport reference oracle the distributed-stencil and supervisor tests compare against
func GlobalReference(nx, rowsPerRank, ranks, iters int, boundary float64) ([]float64, error) {
	sp := mem.NewAddressSpace(mem.Config{PageSize: 4096})
	g, err := NewStencil2D(sp, nx, ranks*rowsPerRank+2, boundary)
	if err != nil {
		return nil, err
	}
	if err := g.run(iters); err != nil {
		return nil, err
	}
	var out []float64
	row := make([]float64, nx)
	for y := 1; y <= ranks*rowsPerRank; y++ {
		if err := g.Cur().Read(row, y*nx); err != nil {
			return nil, err
		}
		out = append(out, row...)
	}
	return out, nil
}
