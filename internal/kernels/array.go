// Package kernels implements real numerical kernels — Jacobi stencil,
// SSOR, wavefront sweep, ADI tridiagonal solves, and an FFT — whose data
// lives in a simulated address space and whose every store goes through
// the simulated MMU: an Array opens a mem.PageRun over the elements it is
// about to write, the run delivers the write fault of each protected
// page exactly as a byte-wise AddressSpace.Write would, and the floats
// are encoded straight into the page storage it lends (reads decode
// from it the same way) — one pass each way, no copy in between. They
// are scaled-down, genuine counterparts of the paper's applications
// (Sweep3D's wavefront, LU's SSOR, BT/SP's ADI, FT's FFT): the
// synthetic models in internal/workload reproduce the paper's
// published write patterns at full scale, while these kernels validate
// that the tracker and checkpointer observe *real* programs correctly —
// double-buffered page alternation, in-place sweeps, transpose bursts —
// and that checkpoint/restore preserves real computations.
package kernels

import (
	"encoding/binary"
	"fmt"
	"math"

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

// checkElems refuses an array of n elements on a space whose pages are
// smaller than one element: elements are coded in place in page storage,
// so none may straddle a page. Arrays start page-aligned and a page size
// is a power of two, so from 8 bytes up none does.
func checkElems(space *mem.AddressSpace, n int) error {
	if n <= 0 {
		return fmt.Errorf("kernels: array length %d", n)
	}
	if space.PageSize() < 8 {
		return fmt.Errorf("kernels: page size %d is smaller than one float64", space.PageSize())
	}
	return nil
}

// NewArray maps a fresh arena holding n float64s.
func NewArray(space *mem.AddressSpace, n int) (*Array, error) {
	if err := checkElems(space, n); err != nil {
		return nil, err
	}
	reg, err := space.Mmap(uint64(n) * 8)
	if err != nil {
		return nil, err
	}
	return &Array{space: space, reg: reg, base: reg.Start(), n: n}, nil
}

// AttachArray rebinds an Array to an existing region starting at addr —
// the restore path, where checkpointed arenas already exist in the
// address space at their original locations.
func AttachArray(space *mem.AddressSpace, addr uint64, n int) (*Array, error) {
	if err := checkElems(space, n); err != nil {
		return nil, err
	}
	reg := space.Find(addr)
	if reg == nil || reg.Start() != addr {
		return nil, fmt.Errorf("kernels: no region starts at %#x", addr)
	}
	if reg.Size() < uint64(n)*8 {
		return nil, fmt.Errorf("kernels: region at %#x holds %d bytes, need %d", addr, reg.Size(), n*8)
	}
	return &Array{space: space, reg: reg, base: addr, n: n}, nil
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

// loadFloats decodes the len(dst) elements stored at addr, which must be
// element-aligned within its page.
func loadFloats(space *mem.AddressSpace, addr uint64, dst []float64) error {
	run, err := space.LoadRun(addr, uint64(len(dst))*8)
	if err != nil {
		return err
	}
	for b, n := run.Next(); n > 0; b, n = run.Next() {
		if n /= 8; b != nil {
			decodeFloats(dst[:n], b)
		} else {
			clear(dst[:n])
		}
		dst = dst[n:]
	}
	return nil
}

// storeFloats encodes src into memory at addr (element-aligned within
// its page), each page faulting first if it is protected.
func storeFloats(space *mem.AddressSpace, addr uint64, src []float64) error {
	run, err := space.StoreRun(addr, uint64(len(src))*8)
	if err != nil {
		return err
	}
	for b, n := run.Next(); n > 0; b, n = run.Next() {
		if n /= 8; b != nil {
			encodeFloats(b, src[:n])
		}
		src = src[n:]
	}
	return run.Err()
}

// decodeFloats and encodeFloats are the one float64 wire codec of the
// package: little-endian IEEE 754 bits, len(dst) (len(src)) elements in
// the first 8 bytes each of b. Both re-slice b once and then work four
// elements at a time over fixed 32-byte windows, which is what lets the
// compiler drop the per-element bounds checks.
func decodeFloats(dst []float64, b []byte) {
	n := len(dst)
	b = b[:n*8]
	i := 0
	for ; i+4 <= n; i += 4 {
		w := b[i*8 : i*8+32 : i*8+32]
		d := dst[i : i+4 : i+4]
		d[0] = math.Float64frombits(binary.LittleEndian.Uint64(w[0:8]))
		d[1] = math.Float64frombits(binary.LittleEndian.Uint64(w[8:16]))
		d[2] = math.Float64frombits(binary.LittleEndian.Uint64(w[16:24]))
		d[3] = math.Float64frombits(binary.LittleEndian.Uint64(w[24:32]))
	}
	for ; i < n; i++ {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8 : i*8+8]))
	}
}

func encodeFloats(b []byte, src []float64) {
	n := len(src)
	b = b[:n*8]
	i := 0
	for ; i+4 <= n; i += 4 {
		w := b[i*8 : i*8+32 : i*8+32]
		v := src[i : i+4 : i+4]
		binary.LittleEndian.PutUint64(w[0:8], math.Float64bits(v[0]))
		binary.LittleEndian.PutUint64(w[8:16], math.Float64bits(v[1]))
		binary.LittleEndian.PutUint64(w[16:24], math.Float64bits(v[2]))
		binary.LittleEndian.PutUint64(w[24:32], math.Float64bits(v[3]))
	}
	for ; i < n; i++ {
		binary.LittleEndian.PutUint64(b[i*8:i*8+8], math.Float64bits(src[i]))
	}
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
