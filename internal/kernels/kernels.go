package kernels

import (
	"fmt"

	"repro/internal/mem"
)

// Stencil2D is a double-buffered 5-point Jacobi iteration on an nx x ny
// grid — the canonical bulk-synchronous kernel. Because it ping-pongs
// between two arrays, consecutive iterations dirty different page sets:
// the real-code counterpart of the workload models' AltShift behaviour
// (and of NAS FT's out-of-place buffers).
type Stencil2D struct {
	nx, ny int
	a, b   *Array
	work   *Array // scratch row: fully rewritten before any read, every sweep
	iter   int
	out    []float64 // Step's out row, nx
}

// NewStencil2D allocates the two grid buffers in space, with boundary
// values boundary and interior zero.
func NewStencil2D(space *mem.AddressSpace, nx, ny int, boundary float64) (*Stencil2D, error) {
	return newStencil2D(freshArenas(space), nx, ny, 0, boundary)
}

// newStencil2D builds a Stencil2D at iteration iter (which selects the
// current buffer) over src's arenas a, b and the scratch row. Fresh
// grids get boundary values boundary and a zero interior; restored ones
// keep their contents.
func newStencil2D(src *arenas, nx, ny, iter int, boundary float64) (*Stencil2D, error) {
	if nx < 3 || ny < 3 || iter < 0 {
		return nil, fmt.Errorf("kernels: stencil grid %dx%d at iteration %d", nx, ny, iter)
	}
	a, err := src.array(nx * ny)
	if err != nil {
		return nil, err
	}
	b, err := src.array(nx * ny)
	if err != nil {
		return nil, err
	}
	work, err := src.array(nx)
	if err != nil {
		return nil, err
	}
	s := &Stencil2D{nx: nx, ny: ny, a: a, b: b, work: work, iter: iter, out: make([]float64, nx)}
	if src.restored {
		return s, nil
	}
	// Boundary rows/columns hold the boundary value in both buffers.
	row := make([]float64, nx)
	for i := range row {
		row[i] = boundary
	}
	for _, arr := range []*Array{a, b} {
		if err := arr.Write(row, 0); err != nil {
			return nil, err
		}
		if err := arr.Write(row, (ny-1)*nx); err != nil {
			return nil, err
		}
		edge := []float64{boundary}
		for y := 1; y < ny-1; y++ {
			if err := arr.Write(edge, y*nx); err != nil {
				return nil, err
			}
			if err := arr.Write(edge, y*nx+nx-1); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// SetRow writes initial conditions into row y of *both* buffers, so the
// values behave as if they had always been there (useful for seeding
// already-converged subregions).
func (s *Stencil2D) SetRow(y int, vals []float64) error {
	if y < 0 || y >= s.ny || len(vals) != s.nx {
		return fmt.Errorf("kernels: SetRow(%d) with %d values on %dx%d grid", y, len(vals), s.nx, s.ny)
	}
	if err := s.a.Write(vals, y*s.nx); err != nil {
		return err
	}
	return s.b.Write(vals, y*s.nx)
}

// Cur returns the buffer holding the current solution.
func (s *Stencil2D) Cur() *Array {
	if s.iter%2 == 0 {
		return s.a
	}
	return s.b
}

func (s *Stencil2D) next() *Array {
	if s.iter%2 == 0 {
		return s.b
	}
	return s.a
}

// Iter returns the number of completed iterations.
func (s *Stencil2D) Iter() int { return s.iter }

// Step performs one Jacobi sweep: next[y][x] = mean of cur's 4 neighbours.
// It makes two memory runs per sweep plus one per interior row. It reads
// cur in place, through one load view of the whole grid (Array.rowView).
// Each row is computed into the private out row and written to the
// scratch arena, then copied into its slot of one store view over next's
// interior rows (Array.storeView). That view is opened right after the
// sweep's first scratch write, so pages fault in the order row-by-row
// stores fault them: the scratch page, then next's pages ascending.
func (s *Stencil2D) Step() error {
	nx, nxt, out := s.nx, s.next(), s.out
	grid, err := s.Cur().rowView(0, nx*s.ny)
	if err != nil {
		return err
	}
	var rows []float64 // next's interior rows, lent after the first scratch write
	for y := 1; y < s.ny-1; y++ {
		// One common length, and mid's right-hand neighbours as a slice
		// of their own, so the inner loop carries no bounds check.
		up, mid, down := grid[(y-1)*nx:], grid[y*nx:], grid[(y+1)*nx:]
		up, mid, down = up[:len(out)], mid[:len(out)], down[:len(out)]
		right := mid[1:]
		out[0] = mid[0]
		out[len(out)-1] = mid[len(out)-1]
		for x := 1; x < len(right); x++ {
			out[x] = 0.25 * (up[x] + down[x] + mid[x-1] + right[x])
		}
		// Publish through the scratch arena before committing to the
		// grid, the way production solvers assemble a result row in
		// private workspace. The arena is rewritten at the same offset
		// from protected inputs on every sweep — never read across an
		// iteration boundary — which is what lets the ckptset analysis
		// classify it recomputable and drop it from checkpoint lines.
		if err := s.work.Write(out, 0); err != nil {
			return err
		}
		if y == 1 {
			rows, err = nxt.storeView(nx, (s.ny-2)*nx)
		}
		// A store run cut short by ErrSegv stops the sweep in the row
		// that holds the page it died on, that row stored up to it.
		if copy(rows[min((y-1)*nx, len(rows)):], out) < len(out) {
			return err
		}
	}
	s.iter++
	return nil
}

// run performs n sweeps.
func (s *Stencil2D) run(n int) error {
	for i := 0; i < n; i++ {
		if err := s.Step(); err != nil {
			return err
		}
	}
	return nil
}

// SSOR is an in-place symmetric successive over-relaxation smoother on an
// nx x ny grid: one forward (lower-triangular) and one backward
// (upper-triangular) Gauss-Seidel sweep per iteration, like NAS LU's
// solver. Being in-place, it rewrites the same pages every iteration —
// the fixed-working-set pattern of LU/SP/BT.
type SSOR struct {
	nx, ny int
	u      *Array
	work   *Array // scratch row: fully rewritten before any read, every sweep
	omega  float64
	iter   int
	mid    []float64 // the row a sweep relaxes, nx
}

// newSSOR builds an SSOR at iteration iter over src's grid and scratch
// row, with relaxation factor omega in (0, 2). A fresh grid gets
// boundary values boundary and a zero interior.
func newSSOR(src *arenas, nx, ny, iter int, boundary, omega float64) (*SSOR, error) {
	if nx < 3 || ny < 3 || iter < 0 {
		return nil, fmt.Errorf("kernels: ssor grid %dx%d at iteration %d", nx, ny, iter)
	}
	if omega <= 0 || omega >= 2 {
		return nil, fmt.Errorf("kernels: ssor omega %v out of (0,2)", omega)
	}
	u, err := src.array(nx * ny)
	if err != nil {
		return nil, err
	}
	work, err := src.array(nx)
	if err != nil {
		return nil, err
	}
	s := &SSOR{nx: nx, ny: ny, u: u, work: work, omega: omega, iter: iter, mid: make([]float64, nx)}
	if src.restored {
		return s, nil
	}
	row := make([]float64, nx)
	for i := range row {
		row[i] = boundary
	}
	if err := u.Write(row, 0); err != nil {
		return nil, err
	}
	if err := u.Write(row, (ny-1)*nx); err != nil {
		return nil, err
	}
	edge := []float64{boundary}
	for y := 1; y < ny-1; y++ {
		if err := u.Write(edge, y*nx); err != nil {
			return nil, err
		}
		if err := u.Write(edge, y*nx+nx-1); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Iter returns completed iterations.
func (s *SSOR) Iter() int { return s.iter }

// sweep relaxes the interior rows in place, top down or bottom up. It
// reads u through one load view (Array.rowView): a row's neighbours as
// they lie, the row itself copied into mid first, as it is updated in
// place. Each relaxed row is written to the scratch arena, then to u.
func (s *SSOR) sweep(backward bool) error {
	nx, mid := s.nx, s.mid
	grid, err := s.u.rowView(0, nx*s.ny)
	if err != nil {
		return err
	}
	for i := 1; i < s.ny-1; i++ {
		y := i
		if backward {
			y = s.ny - 1 - i
		}
		up, down := grid[(y-1)*nx:y*nx], grid[(y+1)*nx:(y+2)*nx]
		copy(mid, grid[y*nx:])
		if backward {
			for x := nx - 2; x >= 1; x-- {
				gs := 0.25 * (up[x] + down[x] + mid[x-1] + mid[x+1])
				mid[x] += s.omega * (gs - mid[x])
			}
		} else {
			for x := 1; x < nx-1; x++ {
				gs := 0.25 * (up[x] + down[x] + mid[x-1] + mid[x+1])
				mid[x] += s.omega * (gs - mid[x])
			}
		}
		// Stage the relaxed row through the scratch arena (rewritten at
		// offset 0 every row, dead across iteration boundaries).
		if err := s.work.Write(mid, 0); err != nil {
			return err
		}
		if err := s.u.Write(mid, y*nx); err != nil {
			return err
		}
	}
	return nil
}

// Step performs one SSOR iteration (forward + backward sweep).
func (s *SSOR) Step() error {
	if err := s.sweep(false); err != nil {
		return err
	}
	if err := s.sweep(true); err != nil {
		return err
	}
	s.iter++
	return nil
}

// Wavefront is a 2-D analogue of Sweep3D's transport sweep: each cell
// combines its west and north neighbours, and each iteration performs
// four corner-origin sweeps (the 2-D "octants"), alternating write
// direction exactly like the transport code.
type Wavefront struct {
	nx, ny int
	v      *Array
	work   *Array // scratch row: fully rewritten before any read, every sweep
	iter   int
	row    []float64 // the row a sweep updates, nx
}

// newWavefront builds a Wavefront at iteration iter over src's grid and
// scratch row. A fresh grid is seed along its top and left edges, zero
// elsewhere.
func newWavefront(src *arenas, nx, ny, iter int, seed float64) (*Wavefront, error) {
	if nx < 2 || ny < 2 || iter < 0 {
		return nil, fmt.Errorf("kernels: wavefront grid %dx%d at iteration %d", nx, ny, iter)
	}
	v, err := src.array(nx * ny)
	if err != nil {
		return nil, err
	}
	work, err := src.array(nx)
	if err != nil {
		return nil, err
	}
	w := &Wavefront{nx: nx, ny: ny, v: v, work: work, iter: iter, row: make([]float64, nx)}
	if src.restored {
		return w, nil
	}
	row := make([]float64, nx)
	for i := range row {
		row[i] = seed
	}
	if err := v.Write(row, 0); err != nil {
		return nil, err
	}
	edge := []float64{seed}
	for y := 1; y < ny; y++ {
		if err := v.Write(edge, y*nx); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// Iter returns completed iterations.
func (w *Wavefront) Iter() int { return w.iter }

// sweepFrom runs one directional sweep with origin corner (ox, oy) in
// {0,1}^2: cells are visited moving away from the origin, each updated
// from its two upwind neighbours. It reads v through one load view
// (Array.rowView): the upwind row as it lies (already swept, and
// written back), the row being swept copied into w.row first.
func (w *Wavefront) sweepFrom(ox, oy int) error {
	nx, cur := w.nx, w.row
	grid, err := w.v.rowView(0, nx*w.ny)
	if err != nil {
		return err
	}
	for i := 1; i < w.ny; i++ {
		y, py := i, i-1
		if oy == 1 {
			y, py = w.ny-1-i, w.ny-i
		}
		prev := grid[py*nx : (py+1)*nx]
		copy(cur, grid[y*nx:])
		for j := 1; j < nx; j++ {
			x := j
			if ox == 1 {
				x = nx - 1 - j
			}
			upwindX := x - 1
			if ox == 1 {
				upwindX = x + 1
			}
			cur[x] = 0.5*cur[upwindX] + 0.5*prev[x] + 0.01
		}
		// Stage the swept row through the scratch arena (rewritten at
		// offset 0 every row, dead across iteration boundaries).
		if err := w.work.Write(cur, 0); err != nil {
			return err
		}
		if err := w.v.Write(cur, y*nx); err != nil {
			return err
		}
	}
	return nil
}

// Step performs one iteration: four corner-origin sweeps.
func (w *Wavefront) Step() error {
	for _, c := range [][2]int{{0, 0}, {1, 0}, {0, 1}, {1, 1}} {
		if err := w.sweepFrom(c[0], c[1]); err != nil {
			return err
		}
	}
	w.iter++
	return nil
}

// ADI is an alternating-direction-implicit step like NAS SP/BT's solvers:
// each iteration performs tridiagonal Thomas solves along every row, then
// along every column, over a right-hand side derived from the current
// solution.
type ADI struct {
	nx, ny int
	u      *Array
	work   *Array // scratch: row slot at 0, column slot at nx; rewritten every solve
	iter   int
	lambda float64 // implicit coupling strength
	// A step's right-hand sides, a row (nx) and a column (ny), and
	// thomas's coefficients (max(nx, ny)).
	row, col, c []float64
}

// newADI builds an ADI at iteration iter over src's grid and scratch,
// with implicit step lambda > 0. A fresh grid holds initial everywhere.
func newADI(src *arenas, nx, ny, iter int, initial, lambda float64) (*ADI, error) {
	if nx < 3 || ny < 3 || iter < 0 {
		return nil, fmt.Errorf("kernels: adi grid %dx%d at iteration %d", nx, ny, iter)
	}
	if lambda <= 0 {
		return nil, fmt.Errorf("kernels: adi lambda %v must be positive", lambda)
	}
	u, err := src.array(nx * ny)
	if err != nil {
		return nil, err
	}
	work, err := src.array(nx + ny)
	if err != nil {
		return nil, err
	}
	a := &ADI{nx: nx, ny: ny, u: u, work: work, iter: iter, lambda: lambda,
		row: make([]float64, nx), col: make([]float64, ny), c: make([]float64, max(nx, ny))}
	if src.restored {
		return a, nil
	}
	row := make([]float64, nx)
	for i := range row {
		row[i] = initial
	}
	for y := 0; y < ny; y++ {
		if err := u.Write(row, y*nx); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// Iter returns completed iterations.
func (a *ADI) Iter() int { return a.iter }

// thomas solves the constant-coefficient tridiagonal system
// (1+2L) x_i - L x_{i-1} - L x_{i+1} = d_i in place on d, with c (at
// least len(d) long, contents ignored) for the eliminated coefficients.
func thomas(d, c []float64, lambda float64) {
	n := len(d)
	c = c[:n]
	b := 1 + 2*lambda
	c[0] = -lambda / b
	d[0] /= b
	for i := 1; i < n; i++ {
		m := b + lambda*c[i-1]
		if i < n-1 {
			c[i] = -lambda / m
		}
		d[i] = (d[i] + lambda*d[i-1]) / m
	}
	for i := n - 2; i >= 0; i-- {
		d[i] -= c[i] * d[i+1]
	}
}

// Step performs one ADI iteration: row solves then column solves. It
// reads u through one load view (Array.rowView), each row and column
// copied into a right-hand side of the solver's own, as the solve is in
// place. Writes go through u: a solved row in one call, a solved column
// element by element.
func (a *ADI) Step() error {
	nx, row, col := a.nx, a.row, a.col
	grid, err := a.u.rowView(0, nx*a.ny)
	if err != nil {
		return err
	}
	// Row direction.
	for y := 0; y < a.ny; y++ {
		copy(row, grid[y*nx:])
		thomas(row, a.c, a.lambda)
		// Stage the solved row through the scratch arena's row slot
		// (rewritten at offset 0 every solve, dead across iterations).
		if err := a.work.Write(row, 0); err != nil {
			return err
		}
		if err := a.u.Write(row, y*nx); err != nil {
			return err
		}
	}
	// Column direction: gather, solve, scatter.
	for x := 0; x < nx; x++ {
		for y := range col {
			col[y] = grid[y*nx+x]
		}
		thomas(col, a.c, a.lambda)
		// Column slot of the scratch arena, at offset nx.
		if err := a.work.Write(col, nx); err != nil {
			return err
		}
		for y := range col {
			if err := a.u.Write(col[y:y+1], y*nx+x); err != nil {
				return err
			}
		}
	}
	a.iter++
	return nil
}
