package mem

import "math/bits"

// Fault is a page SetFaultHandler hands its h.
//
// Kept only for the frozen benchmark/ harness; ROADMAP item 3 deletes it.
type Fault struct {
	Page   uint64 // the page's base address
	Region *Region
}

// SetFaultHandler opens a DirtyLog on s whose OnFault hands h each page
// it records, in ascending order and already unprotected.
//
// Kept only for the frozen benchmark/ harness; ROADMAP item 3 deletes it.
func (s *AddressSpace) SetFaultHandler(h func(Fault)) {
	l := NewDirtyLog(s)
	l.OnFault = func(r *Region, w, m uint64) {
		for ; m != 0; m &= m - 1 {
			h(Fault{Page: r.PageAddr(w*64 + uint64(bits.TrailingZeros64(m))), Region: r})
		}
	}
	l.Open()
}
