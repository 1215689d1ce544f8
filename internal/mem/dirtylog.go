package mem

import (
	"slices"

	"repro/internal/bitset"
)

// DirtyLog is the paper's instrument (§4), once: write-protect the data
// memory of an address space, log the page on its first write fault
// and unprotect it, read the logged set at the client's boundary, clear
// it and re-protect. The tracker (timeslice alarm), the checkpointer
// (capture) and the migrator (pre-copy round) each hold one and differ
// only in when they call Reset and what they do with the pages.
//
// The open logs are the MMU's only client: every write fault and map
// event goes to them, and nothing else. Logs stack: an event reaches the
// most recently opened log first. Every log keeps its own sets — stacked
// observers reset on different clocks over the same protection bits —
// over the same regions: what a log watches is a property of the region
// (its kind, MarkRecomputable), not of the log. A fault on a region no
// open log records is unhandled: the write fails with ErrSegv.
//
// Faults are delivered a bitmap word at a time: a WriteRange hands the
// logs a word's protected pages at once, log by log from the top of the
// stack, and a single fault is the one-bit case. Each OnFault observer
// sees its own log's deliveries, a word each, in ascending page order.
//
// An OnFault observer must not change protection: it runs in the middle
// of a delivery that has already decided which pages fault.
type DirtyLog struct {
	space  *AddressSpace
	sets   map[*Region]*bitset.Set // created on a region's first fault
	faults uint64

	// Consecutive faults overwhelmingly repeat the region (a sweep walks
	// one arena), so the map lookup is skipped while it does.
	lastR   *Region
	lastSet *bitset.Set

	// OnFault, when set, observes each word delivery the log records,
	// after its pages are logged and unprotected: pages w*64+b of r for
	// every set bit b of m (m is never zero).
	OnFault func(r *Region, w, m uint64)
	// OnMap, when set, observes region lifetime while the log is open.
	// For a newly mapped region pages is the number of pages the log
	// just protected (zero when it does not watch the region); for an
	// unmapped one it is the number of logged pages that were dropped
	// with it — memory exclusion (§4.2).
	OnMap func(r *Region, mapped bool, pages uint64)
}

// NewDirtyLog creates a closed, empty log over s.
func NewDirtyLog(s *AddressSpace) *DirtyLog {
	return &DirtyLog{space: s, sets: make(map[*Region]*bitset.Set)}
}

// Watches reports whether the log protects and logs r: checkpointable
// data memory (neither the stack nor a bounce arena, §4.2) that was not
// marked recomputable. Every log on a space watches the same regions.
func (l *DirtyLog) Watches(r *Region) bool { return r.watched() }

// Open starts logging: it write-protects every watched region and
// returns the pages protected. Sets logged before an earlier Close are
// kept.
func (l *DirtyLog) Open() uint64 {
	if l.IsOpen() {
		panic("mem: dirty log already open")
	}
	l.space.settle()
	l.space.logs = append(l.space.logs, l)
	l.lastR, l.lastSet = nil, nil
	return l.protect()
}

// IsOpen reports whether the log is logging: opened and not yet closed.
func (l *DirtyLog) IsOpen() bool { return slices.Contains(l.space.logs, l) }

// Close stops logging and clears write protection on the whole space —
// so another log still open on it sees nothing more until its next
// Reset. Logs close in any order, and a closed log leaves the stack at
// once; reopened, it goes on top. Closing a closed log is a no-op.
func (l *DirtyLog) Close() {
	s := l.space
	i := slices.Index(s.logs, l)
	if i < 0 {
		return
	}
	s.settle()
	s.logs = slices.Delete(s.logs, i, i+1)
	l.lastR, l.lastSet = nil, nil
	for _, r := range s.regions {
		r.unprotectAll()
	}
}

// Reset forgets every logged page and re-protects the watched regions,
// returning the pages protected: the next interval starts now.
func (l *DirtyLog) Reset() uint64 {
	l.space.settle()
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
			r.protectAll()
			pages += r.Pages()
		}
	}
	return pages
}

// Pages returns the logged page indexes of r, or nil when none were
// logged. The set is the log's own: read it, do not keep or change it.
func (l *DirtyLog) Pages(r *Region) *bitset.Set {
	l.space.settle()
	return l.sets[r]
}

// Count returns the number of logged pages that are still mapped: pages
// of live regions.
func (l *DirtyLog) Count() uint64 {
	l.space.settle()
	var n uint64
	for r, rs := range l.sets {
		if !r.dead {
			n += rs.Count()
		}
	}
	return n
}

// Faults returns the number of write faults the log has recorded since
// it was created. It can exceed the pages ever logged: a page another
// log re-protected faults again within this log's interval.
func (l *DirtyLog) Faults() uint64 {
	l.space.settle()
	return l.faults
}

// setFor returns the set r's faults are logged in, creating it on the
// region's first fault. Only an open log that watches r is asked.
func (l *DirtyLog) setFor(r *Region) *bitset.Set {
	rs := l.sets[r]
	if rs == nil {
		rs = bitset.New(r.Pages())
		l.sets[r] = rs
	}
	return rs
}

// mapEvent mirrors the library's mmap/munmap interception (§4.1): a new
// region is protected at once so its initialisation writes are logged;
// an unmapped region's logged pages will never be needed again. Only an
// open log is handed one.
func (l *DirtyLog) mapEvent(r *Region, mapped bool) {
	var pages uint64
	if mapped {
		if l.Watches(r) {
			r.protectAll()
			pages = r.Pages()
		}
	} else if rs := l.sets[r]; rs != nil {
		pages = rs.Count()
		delete(l.sets, r)
	}
	if l.OnMap != nil {
		l.OnMap(r, mapped, pages)
	}
}
