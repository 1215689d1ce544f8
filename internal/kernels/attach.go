package kernels

import (
	"fmt"
	"sort"

	"repro/internal/mem"
)

// Attach constructors rebuild kernel handles over a *restored* address
// space: after ckpt.RestoreAll recreates the regions at their original
// addresses with their checkpointed contents, these functions locate the
// kernel's arenas and resume computation from the checkpointed iteration.
// Together with the New constructors they give every kernel a full
// crash/restore round trip, exercised by the integration tests.

// arenaLayout rebinds a kernel's full arena layout: one element count
// per arena, in the order the New constructor allocates them. Mmap
// bump-allocates monotonically and kernels never unmap, so address
// order equals allocation order, and a restore (ckpt.RestoreAll → MapAt)
// recreates every region at its original address — including regions a
// protection spec excluded from capture, which come back zero-filled
// but still present. Candidate regions are those whose (page-rounded)
// size matches any layout slot; the count must match exactly, and each
// region in address order must fit its slot's size bucket.
func arenaLayout(space *mem.AddressSpace, elems ...int) ([]*Array, error) {
	fits := func(r *mem.Region, n int) bool {
		want := uint64(n) * 8
		return r.Size() >= want && r.Size() < want+space.PageSize()
	}
	var cands []*mem.Region
	for _, r := range space.Regions() {
		if r.Kind() != mem.Mmap {
			continue
		}
		for _, n := range elems {
			if fits(r, n) {
				cands = append(cands, r)
				break
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].Start() < cands[j].Start() })
	if len(cands) != len(elems) {
		return nil, fmt.Errorf("kernels: found %d candidate arenas, want %d", len(cands), len(elems))
	}
	out := make([]*Array, len(elems))
	for i, n := range elems {
		if !fits(cands[i], n) {
			return nil, fmt.Errorf("kernels: arena %d at %#x holds %d bytes, want %d elems",
				i, cands[i].Start(), cands[i].Size(), n)
		}
		a, err := AttachArray(space, cands[i].Start(), n)
		if err != nil {
			return nil, err
		}
		out[i] = a
	}
	return out, nil
}

// attachSSOR rebuilds an SSOR handle over a restored space. omega must
// match the original; iter is the completed-iteration count at the
// checkpoint.
func attachSSOR(space *mem.AddressSpace, nx, ny int, omega float64, iter int) (*SSOR, error) {
	if nx < 3 || ny < 3 || omega <= 0 || omega >= 2 || iter < 0 {
		return nil, fmt.Errorf("kernels: bad SSOR attach parameters")
	}
	bufs, err := arenaLayout(space, nx*ny, nx)
	if err != nil {
		return nil, err
	}
	return &SSOR{nx: nx, ny: ny, u: bufs[0], work: bufs[1], omega: omega, iter: iter, mid: make([]float64, nx)}, nil
}

// attachWavefront rebuilds a Wavefront handle over a restored space.
func attachWavefront(space *mem.AddressSpace, nx, ny, iter int) (*Wavefront, error) {
	if nx < 2 || ny < 2 || iter < 0 {
		return nil, fmt.Errorf("kernels: bad wavefront attach parameters")
	}
	bufs, err := arenaLayout(space, nx*ny, nx)
	if err != nil {
		return nil, err
	}
	return &Wavefront{nx: nx, ny: ny, v: bufs[0], work: bufs[1], iter: iter, row: make([]float64, nx)}, nil
}

// attachADI rebuilds an ADI handle over a restored space. lambda must
// match the original.
func attachADI(space *mem.AddressSpace, nx, ny int, lambda float64, iter int) (*ADI, error) {
	if nx < 3 || ny < 3 || lambda <= 0 || iter < 0 {
		return nil, fmt.Errorf("kernels: bad ADI attach parameters")
	}
	bufs, err := arenaLayout(space, nx*ny, nx+ny)
	if err != nil {
		return nil, err
	}
	a := &ADI{nx: nx, ny: ny, u: bufs[0], work: bufs[1], lambda: lambda, iter: iter}
	a.bufs()
	return a, nil
}

// attachFFT rebuilds an FFT handle over a restored space; pass is the
// number of butterfly passes completed at the checkpoint (the ping-pong
// parity selects which buffer holds the live data).
func attachFFT(space *mem.AddressSpace, n, pass int) (*FFT, error) {
	if n < 2 || n&(n-1) != 0 || pass < 0 {
		return nil, fmt.Errorf("kernels: bad FFT attach parameters")
	}
	bufs, err := arenaLayout(space, 2*n, 2*n, n)
	if err != nil {
		return nil, err
	}
	return &FFT{n: n, x: bufs[0], y: bufs[1], tw: bufs[2], pass: pass}, nil
}
