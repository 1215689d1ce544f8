package mem

// DMA write path: a NIC depositing a message directly into user memory
// (RDMA / programmed-I/O direct mode) bypasses the MMU's write
// protection entirely — no fault is raised, the tracker never sees the
// page, and an incremental checkpoint taken afterwards silently omits
// it (the paper's §4.2 NIC-vs-mprotect conflict). WriteDirect and
// WriteRangeDirect model exactly that: they store contents like
// Write/WriteRange but never deliver faults; instead every protected
// page they land on is marked in the region's silent-dirty bitmap, so
// the under-count is measurable (SilentDirtyBytes) and reconcilable
// (ReplaySilent, the deregistration step of a drain protocol).

import "math/bits"

// WriteDirect stores data at addr with DMA semantics: protected pages
// do not fault — the bytes land anyway and the pages are marked
// silent-dirty. It returns the number of bytes that landed on pages
// that were protected at write time, i.e. the bytes the write-fault
// tracker did not observe.
func (s *AddressSpace) WriteDirect(addr uint64, data []byte) (silentBytes uint64, err error) {
	s.settle() // a DMA write's silence depends on protection
	n := uint64(len(data))
	if n == 0 {
		return 0, nil
	}
	r, err := s.checkRange(addr, n)
	if err != nil {
		return 0, err
	}
	silentBytes = r.markSilent(addr, n)
	if !s.cfg.Phantom {
		copy(r.store(addr, n), data)
	}
	s.writeBytes += n
	return silentBytes, nil
}

// WriteRangeDirect is WriteRange with DMA semantics: the whole byte
// range [addr, addr+n) is written without raising a single fault, and
// every protected page it touches becomes silent-dirty. In backed mode
// the range is filled with the same rolling per-call byte value as
// WriteRange so contents remain deterministic. It returns the number
// of bytes that landed on protected (now silent) pages.
func (s *AddressSpace) WriteRangeDirect(addr, n uint64) (silentBytes uint64, err error) {
	s.settle() // a DMA write's silence depends on protection
	if n == 0 {
		return 0, nil
	}
	r, err := s.checkRange(addr, n)
	if err != nil {
		return 0, err
	}
	silentBytes = r.markSilent(addr, n)
	s.fill(r, addr, n)
	return silentBytes, nil
}

// markSilent marks every protected page of [addr, addr+n), a range
// inside r, silent-dirty and returns the bytes of the range that landed
// on them: whole pages, less the parts of the first and last page the
// range does not cover.
func (r *Region) markSilent(addr, n uint64) uint64 {
	first, last := r.PageIndex(addr), r.PageIndex(addr+n-1)
	var pages uint64
	for w, m := r.protected(first, last); m != 0; w, m = r.protected(w*64+64, last) {
		if r.silent == nil {
			r.silent = make([]uint64, r.words())
		}
		r.silent[w] |= m
		pages += uint64(bits.OnesCount64(m))
	}
	if pages == 0 {
		return 0
	}
	ps := r.space.cfg.PageSize
	silent := pages * ps
	if r.Protected(addr) {
		silent -= addr & (ps - 1)
	}
	if r.Protected(addr + n - 1) {
		silent -= ps - 1 - ((addr + n - 1) & (ps - 1))
	}
	return silent
}

// SilentDirtyBytes returns the total bytes of silently dirty pages
// across all live regions: pages whose contents were changed by DMA
// writes while write-protected, which an incremental checkpoint based
// on fault tracking alone would omit. This is the ground-truth
// under-count of the incremental write set.
func (s *AddressSpace) SilentDirtyBytes() uint64 {
	s.settle()
	var pages uint64
	for _, r := range s.regions {
		pages += r.silentPages()
	}
	return pages * s.cfg.PageSize
}

// ReplaySilent reconciles every silent-dirty page by delivering the
// write fault the DMA engine suppressed: the open dirty logs (tracker,
// checkpointer) record each page exactly as if the CPU had written it,
// so the pages re-enter the incremental write set before the next
// checkpoint. This is the deregistration step of an RDMA drain
// protocol — once the NIC's mappings are torn down, the pages it wrote
// are handed back to the MMU-based tracker. A page of a region no open
// log records still takes its fault and is then unprotected, so it is
// never checkpointed torn. Returns the number of pages replayed.
func (s *AddressSpace) ReplaySilent() uint64 {
	s.settle()
	var pages uint64
	for _, r := range s.regions {
		for w, m := range r.silent {
			pages += uint64(bits.OnesCount64(m))
			for ; m != 0 && !s.faultWord(r, uint64(w), m); m &= m - 1 {
				r.unprotect(uint64(w), m&-m)
			}
		}
	}
	return pages
}
