// Package kernels implements real numerical kernels — Jacobi stencil,
// SSOR, wavefront sweep, ADI tridiagonal solves, and an FFT — whose data
// lives in a simulated address space and whose every store goes through
// the simulated MMU: an Array opens a mem.PageRun over the elements it is
// about to write, the run delivers the write fault of each protected
// page exactly as a byte-wise AddressSpace.Write would, and the floats
// are copied straight into the region storage it lends (reads copy out
// of it the same way): a float64 and its 8 page bytes are the same
// memory. Stencil2D, SSOR, Wavefront and ADI read their grids as views
// of the storage a load run lends, one view per sweep or step; only a
// row a solver updates in place is copied out first. Stencil2D.Step also
// stores its output rows through one view a store run lends, opened
// after the sweep's first write to its scratch row. A load view is
// read-only. A view may be held across the calls of one sweep: a sweep
// fires no events, so nothing inside it can unmap a region or re-protect
// a page. The kernels are scaled-down, genuine counterparts of the
// paper's applications (Sweep3D's wavefront, LU's SSOR, BT/SP's ADI,
// FT's FFT): the synthetic models in internal/workload reproduce the
// paper's published write patterns at full scale, while these kernels
// validate that the tracker and checkpointer observe *real* programs
// correctly — double-buffered page alternation, in-place sweeps,
// transpose bursts — and that checkpoint/restore preserves real
// computations.
package kernels

import (
	"fmt"
	"unsafe"

	"repro/internal/mem"
)

// Array is a dense float64 vector stored in a region of a simulated
// address space. All element accesses go through the simulated MMU, so a
// tracker attached to the space observes the kernel's true write pattern.
type Array struct {
	space *mem.AddressSpace
	reg   *mem.Region
	base  uint64
	n     int
}

// checkElems refuses an array of n elements on a phantom space, which
// has no storage, or on a space whose pages are smaller than one
// element: elements are coded in place in page storage, so none may
// straddle a page. Arrays start page-aligned and a page size is a power
// of two, so from 8 bytes up none does.
func checkElems(space *mem.AddressSpace, n int) error {
	if n <= 0 {
		return fmt.Errorf("kernels: array length %d", n)
	}
	if space.Phantom() {
		return fmt.Errorf("kernels: arrays need a backed address space")
	}
	if space.PageSize() < 8 {
		return fmt.Errorf("kernels: page size %d is smaller than one float64", space.PageSize())
	}
	return nil
}

// arenas is where a kernel's one constructor gets its arenas. Fresh, it
// maps each one. Restored, it hands out the Mmap regions of a space a
// restore (ckpt.RestoreAll) recreated, in address order: the order the
// fresh build allocated them in, because Mmap bump-allocates and kernels
// never unmap. A restored arena must be the page-rounded size asked for,
// and the constructor must bind every one (bound), so a restored layout
// is the fresh one or nothing. It keeps the arenas' start addresses, not
// their regions: the ckptset analysis would read a region field as a
// protection region of its own.
type arenas struct {
	space    *mem.AddressSpace
	restored bool
	starts   []uint64 // restored: the arenas not yet handed out, in address order
}

// freshArenas maps a kernel's arenas anew in space.
func freshArenas(space *mem.AddressSpace) *arenas { return &arenas{space: space} }

// restoredArenas hands out the arenas a restore recreated in space.
func restoredArenas(space *mem.AddressSpace) *arenas {
	src := &arenas{space: space, restored: true}
	for _, r := range space.Regions() {
		if r.Kind() == mem.Mmap {
			src.starts = append(src.starts, r.Start())
		}
	}
	return src
}

// region returns the next arena of size bytes, page-rounded.
func (src *arenas) region(size uint64) (*mem.Region, error) {
	if !src.restored {
		return src.space.Mmap(size)
	}
	if len(src.starts) == 0 {
		return nil, fmt.Errorf("kernels: restored space holds no arena for %d bytes", size)
	}
	r := src.space.Find(src.starts[0])
	ps := src.space.PageSize()
	if want := (size + ps - 1) &^ (ps - 1); r.Size() != want {
		return nil, fmt.Errorf("kernels: restored arena at %#x holds %d bytes, want %d", r.Start(), r.Size(), want)
	}
	src.starts = src.starts[1:]
	return r, nil
}

// array returns the next arena as an Array of n float64s.
func (src *arenas) array(n int) (*Array, error) {
	if err := checkElems(src.space, n); err != nil {
		return nil, err
	}
	reg, err := src.region(uint64(n) * 8)
	if err != nil {
		return nil, err
	}
	return &Array{space: src.space, reg: reg, base: reg.Start(), n: n}, nil
}

// bound refuses a restored space holding arenas the constructor did not
// bind.
func (src *arenas) bound() error {
	if len(src.starts) > 0 {
		return fmt.Errorf("kernels: restored space holds %d arenas the kernel did not bind", len(src.starts))
	}
	return nil
}

// Region returns the backing region.
func (a *Array) Region() *mem.Region { return a.reg }

func (a *Array) check(off, n int) error {
	if off < 0 || n < 0 || off+n > a.n {
		return fmt.Errorf("kernels: slice [%d,%d) out of array of %d", off, off+n, a.n)
	}
	return nil
}

// Read copies elements [off, off+len(dst)) into dst.
func (a *Array) Read(dst []float64, off int) error {
	if err := a.check(off, len(dst)); err != nil {
		return err
	}
	return loadFloats(a.space, a.base+uint64(off)*8, dst)
}

// Write stores src at element offset off, faulting through the MMU like
// any application store.
func (a *Array) Write(src []float64, off int) error {
	if err := a.check(off, len(src)); err != nil {
		return err
	}
	return storeFloats(a.space, a.base+uint64(off)*8, src)
}

// rowView returns elements [off, off+n) for reading, as a view of the
// storage a load run lends: read-only, and valid until the array's
// region is unmapped.
func (a *Array) rowView(off, n int) ([]float64, error) {
	if err := a.check(off, n); err != nil {
		return nil, err
	}
	run, err := a.space.LoadRun(a.base+uint64(off)*8, uint64(n)*8)
	if err != nil {
		return nil, err
	}
	b, _ := run.Next()
	return view[float64](b), nil
}

// storeView returns elements [off, off+n) for writing, as a view of the
// storage a store run lends once the write faults of the range's
// protected pages are delivered. It is valid, like a load view, until
// the region is unmapped, but a page re-protected after the view was
// taken would take its stores unseen: it is held only where nothing can
// re-protect a page (one Stencil2D.Step). A run that dies with
// mem.ErrSegv lends only the elements before the page it died on, and
// that error comes back with them.
func (a *Array) storeView(off, n int) ([]float64, error) {
	if err := a.check(off, n); err != nil {
		return nil, err
	}
	run, err := a.space.StoreRun(a.base+uint64(off)*8, uint64(n)*8)
	if err != nil {
		return nil, err
	}
	b, _ := run.Next()
	return view[float64](b), run.Err()
}

// loadFloats decodes the len(dst) elements stored at addr, which must be
// element-aligned.
func loadFloats(space *mem.AddressSpace, addr uint64, dst []float64) error {
	run, err := space.LoadRun(addr, uint64(len(dst))*8)
	if err != nil {
		return err
	}
	b, _ := run.Next()
	decodeFloats(dst, b)
	return nil
}

// storeFloats encodes src into memory at addr (element-aligned), each
// protected page faulting first.
func storeFloats(space *mem.AddressSpace, addr uint64, src []float64) error {
	run, err := space.StoreRun(addr, uint64(len(src))*8)
	if err != nil {
		return err
	}
	b, _ := run.Next()
	encodeFloats(b, src)
	return run.Err()
}

// decodeFloats and encodeFloats are the one float64 codec of the
// package: len(dst) (len(src)) elements in the first 8 bytes each of b,
// as little-endian IEEE 754 bits. The module runs on little-endian hosts
// only (TestFloatCodecBitExact fails on any other), where that is the
// float64's own memory, so each is one copy through view.
func decodeFloats(dst []float64, b []byte) { copy(dst, view[float64](b)) }

func encodeFloats(b []byte, src []float64) { copy(view[float64](b), src) }

// view reinterprets s as the []To over the same memory: the one place
// the package looks at page bytes as floats (or floats as bytes). A
// []byte viewed as floats must start 8-byte aligned, which every chunk a
// PageRun lends at an element-aligned address does: a region's storage
// is one make, and arrays start page-aligned in it. The view aliases s:
// it is valid, and writable, exactly as long as s is.
func view[To, From byte | float64](s []From) []To {
	var to To
	var from From
	n := uintptr(len(s)) * unsafe.Sizeof(from) / unsafe.Sizeof(to)
	return unsafe.Slice((*To)(unsafe.Pointer(unsafe.SliceData(s))), n)
}

// values returns a copy of every element.
func (a *Array) values() ([]float64, error) {
	out := make([]float64, a.n)
	if err := a.Read(out, 0); err != nil {
		return nil, err
	}
	return out, nil
}

// checksum returns the sum of all elements — a cheap integrity probe for
// checkpoint/restore equivalence tests.
func (a *Array) checksum() (float64, error) {
	row := make([]float64, min(a.n, 4096))
	var sum float64
	for off := 0; off < a.n; off += len(row) {
		chunk := row[:min(len(row), a.n-off)]
		if err := a.Read(chunk, off); err != nil {
			return 0, err
		}
		for _, v := range chunk {
			sum += v
		}
	}
	return sum, nil
}
