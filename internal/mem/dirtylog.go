package mem

import (
	"math/bits"
	"slices"

	"repro/internal/bitset"
)

// DirtyLog is the paper's instrument (§4), once: write-protect the data
// memory of an address space, let the write-fault handler log the page
// and unprotect it, read the logged set at the client's boundary, clear
// it and re-protect. The tracker (timeslice alarm), the checkpointer
// (capture) and the migrator (pre-copy round) each hold one and differ
// only in when they call Reset and what they do with the pages.
//
// Logs stack: Open chains the log's fault handler and map hook in front
// of whatever SetFaultHandler/SetMapHook held, so an event reaches the
// most recently opened log first. Every log keeps its own sets — stacked
// observers reset on different clocks over the same protection bits —
// and records only regions it watches: a fault another log's protection
// raised on a region this one excludes is that log's to record and
// unprotect.
//
// When nothing but logs handles a space's faults, a WriteRange hands
// them the protected pages of a bitmap word at once, log by log from the
// top of the chain, instead of page by page through every log. Counts,
// sets and protection bits come out the same; only OnFault observers of
// stacked logs can tell, and each still sees its own log's pages in
// ascending order.
type DirtyLog struct {
	space    *AddressSpace
	sets     map[*Region]*bitset.Set // created on a region's first fault
	excluded map[*Region]bool
	faults   uint64

	// Consecutive faults overwhelmingly repeat the region (a sweep walks
	// one arena), so the map lookup and the watch test are skipped while
	// it does. lastSet is nil for a region the log does not record.
	lastR   *Region
	lastSet *bitset.Set

	open        bool
	prevForeign bool // the space's foreign flag before Open chained the log
	prevF       FaultHandler
	prevM       MapHook

	// OnFault, when set, observes each page the log records, after it is
	// logged and unprotected.
	OnFault func(r *Region, idx uint64)
	// OnMap, when set, observes region lifetime while the log is open.
	// For a newly mapped region pages is the number of pages the log
	// just protected (zero when it does not watch the region); for an
	// unmapped one it is the number of logged pages, inside the region's
	// current size, that were dropped with it — memory exclusion (§4.2).
	OnMap func(r *Region, mapped bool, pages uint64)
}

// NewDirtyLog creates a closed, empty log over s.
func NewDirtyLog(s *AddressSpace) *DirtyLog {
	return &DirtyLog{space: s, sets: make(map[*Region]*bitset.Set), excluded: make(map[*Region]bool)}
}

// Exclude marks r as never protected and never logged by this log (the
// MPI bounce buffer, recomputable arenas). A nil region is ignored.
func (l *DirtyLog) Exclude(r *Region) {
	if r != nil {
		l.excluded[r] = true
		l.lastR, l.lastSet = nil, nil
	}
}

// Watches reports whether the log protects and logs r: data memory
// (everything but the stack, §4.2) that was not excluded.
func (l *DirtyLog) Watches(r *Region) bool {
	return r.kind.Checkpointable() && !l.excluded[r]
}

// Open starts logging: it write-protects every watched region and
// returns the pages protected. Sets logged before an earlier Close are
// kept.
func (l *DirtyLog) Open() uint64 {
	if l.open {
		panic("mem: dirty log already open")
	}
	s := l.space
	if !slices.Contains(s.logs, l) { // else closed out of order: still chained
		l.prevF, l.prevForeign = s.handler, s.foreign
		s.handler = l.fault
		l.prevM = s.SetMapHook(l.mapEvent)
		s.logs = append(s.logs, l)
	}
	l.open = true
	l.lastR, l.lastSet = nil, nil
	return l.protect()
}

// IsOpen reports whether the log is logging: opened and not yet closed.
func (l *DirtyLog) IsOpen() bool { return l.open }

// Close stops logging and clears write protection on the whole space —
// so another log still open on it sees nothing more until its next
// Reset. Logs close in any order: one closed beneath an open log stays
// chained, passing events through, and the handler and hook that were
// installed before a log are restored once it and every log opened
// after it have closed. Closing a closed log is a no-op.
func (l *DirtyLog) Close() {
	if !l.open {
		return
	}
	l.open = false
	l.lastR, l.lastSet = nil, nil
	s := l.space
	for n := len(s.logs); n > 0 && !s.logs[n-1].open; n-- {
		top := s.logs[n-1]
		s.handler, s.foreign = top.prevF, top.prevForeign
		s.SetMapHook(top.prevM)
		s.logs = s.logs[:n-1]
	}
	for _, r := range s.regions {
		clear(r.wp)
		r.armed = false
	}
}

// Reset forgets every logged page and re-protects the watched regions,
// returning the pages protected: the next interval starts now.
func (l *DirtyLog) Reset() uint64 {
	for r, rs := range l.sets {
		if r.dead { // unmapped while the log was closed
			delete(l.sets, r)
			continue
		}
		rs.Clear()
	}
	return l.protect()
}

func (l *DirtyLog) protect() uint64 {
	var pages uint64
	for _, r := range l.space.regions {
		if l.Watches(r) {
			r.ProtectAll()
			pages += r.Pages()
		}
	}
	return pages
}

// Pages returns the logged page indexes of r, or nil when none were
// logged. The set is the log's own: read it, do not keep or change it.
// Indexes at or beyond r.Pages() are pages of a heap that has shrunk
// since; skip them.
func (l *DirtyLog) Pages(r *Region) *bitset.Set { return l.sets[r] }

// Count returns the number of logged pages that are still mapped: pages
// of live regions inside their current size.
func (l *DirtyLog) Count() uint64 {
	var n uint64
	for r, rs := range l.sets {
		if !r.dead {
			n += rs.CountBelow(r.Pages())
		}
	}
	return n
}

// Faults returns the number of write faults the log has recorded since
// it was created. It can exceed the pages ever logged: a page another
// log re-protected faults again within this log's interval.
func (l *DirtyLog) Faults() uint64 { return l.faults }

// setFor returns the set r's faults are logged in, creating it on the
// region's first fault, or nil when they are not this log's to record.
func (l *DirtyLog) setFor(r *Region) *bitset.Set {
	if !l.open || !l.Watches(r) {
		return nil
	}
	rs := l.sets[r]
	if rs == nil {
		rs = &bitset.Set{}
		l.sets[r] = rs
	}
	return rs
}

// records reports whether r's faults are this log's to record.
func (l *DirtyLog) records(r *Region) bool {
	if r != l.lastR {
		l.lastR, l.lastSet = r, l.setFor(r)
	}
	return l.lastSet != nil
}

// record is the SIGSEGV-handler analogue for the faulting pages m of
// bitmap word w of r: log them and unprotect them so later writes in
// the interval proceed at full speed.
func (l *DirtyLog) record(r *Region, w, m uint64) {
	if !l.records(r) {
		return
	}
	l.lastSet.OrWord(w, m)
	r.wp[w] &^= m
	l.faults += uint64(bits.OnesCount64(m))
	for ; m != 0 && l.OnFault != nil; m &= m - 1 {
		l.OnFault(r, w*64+uint64(bits.TrailingZeros64(m)))
	}
}

// fault is the log's link in the handler chain: one page, then the
// handler below.
func (l *DirtyLog) fault(f Fault) {
	idx := f.Region.PageIndex(f.Page)
	l.record(f.Region, idx/64, 1<<(idx%64))
	if l.prevF != nil {
		l.prevF(f)
	}
}

// mapEvent mirrors the library's mmap/munmap interception (§4.1): a new
// region is protected at once so its initialisation writes are logged;
// an unmapped region's logged pages will never be needed again.
func (l *DirtyLog) mapEvent(r *Region, mapped bool) {
	if l.open {
		var pages uint64
		if mapped {
			if l.Watches(r) {
				r.ProtectAll()
				pages = r.Pages()
			}
		} else if rs := l.sets[r]; rs != nil {
			pages = rs.CountBelow(r.Pages())
			delete(l.sets, r)
		}
		if l.OnMap != nil {
			l.OnMap(r, mapped, pages)
		}
		if !mapped {
			delete(l.excluded, r)
		}
	}
	if l.prevM != nil {
		l.prevM(r, mapped)
	}
}
