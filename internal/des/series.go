package des

import "fmt"

// An event series is one callback fired n times that occupies exactly one
// heap node however many firings remain.
//
// Sequence-block invariant. Creating a series reserves n consecutive
// sequence numbers seq0..seq0+n-1, exactly the numbers n back-to-back
// Schedule calls would have drawn, and queues only firing 0 with key
// (at(0), seq0). When firing k is dequeued the series re-enters the heap
// with key (at(k+1), seq0+k+1) before its callback runs. Firing times are
// non-decreasing, so that key is larger than every key the series had
// before it, and it is the key firing k+1 would have carried had all n been
// scheduled up front: the dequeue order of the whole engine, Fired(), the
// tie-breaks against same-instant events and the shard horizons (the
// pending firing is the minimum of those left) are the bulk-scheduled ones
// by construction. A callback that re-arms itself with After is not
// equivalent: it draws a fresh sequence number at each firing and so moves
// behind every event scheduled in between for the same instant.
//
// The one difference is after a Cancel. Bulk-scheduled firings that were
// cancelled stay queued, and (comm class) keep lowering their shard's
// horizon, until each is popped; a cancelled series leaves one dead node.
// What fires, and when, is still identical; a group may cut its epochs at
// other instants, so CriticalPathEvents can differ. The workload never
// cancels a series.

// series is the arena record behind a multi-firing slot: firing k is due at
// first + k*step, or at first + offsets[k] when offsets is non-nil.
type series struct {
	first, step Time
	offsets     []Time // borrowed from the caller; not modified
	k, n        int    // pending firing, total firings
}

// at reports the time of the pending firing.
func (s *series) at() Time {
	if s.offsets != nil {
		return s.first + s.offsets[s.k]
	}
	return s.first + Time(s.k)*s.step
}

// ScheduleSeriesLocal queues fn to fire n times, at first, first+step, …,
// first+(n-1)*step, as shard-confined events (see AfterLocal). It is
// equivalent to n AfterLocal calls made now, in time order, but holds one
// queue entry. step must not be negative; n == 0 queues nothing and
// returns the zero Event. The returned handle covers the whole series:
// Cancel drops every firing still to come.
func (e *Engine) ScheduleSeriesLocal(first, step Time, n int, fn func()) Event {
	return e.scheduleSeries(series{first: first, step: step, n: n}, fn, true)
}

// ScheduleSeriesAt queues fn to fire len(offsets) times, firing k at
// base+offsets[k], as comm events: the series form of one Schedule call per
// entry, in slice order. offsets must be non-decreasing (checked here — a
// decreasing list would fire out of the order its sequence numbers imply)
// and is borrowed, not copied: it must stay unmodified until the series has
// finished or been cancelled. One list may back any number of series.
func (e *Engine) ScheduleSeriesAt(base Time, offsets []Time, fn func()) Event {
	return e.scheduleSeries(series{first: base, offsets: offsets, n: len(offsets)}, fn, false)
}

func (e *Engine) scheduleSeries(s series, fn func(), local bool) Event {
	if s.n < 0 || s.step < 0 {
		panic(fmt.Sprintf("des: series of %d firings with step %v", s.n, s.step))
	}
	for i := 1; i < len(s.offsets); i++ {
		if s.offsets[i] < s.offsets[i-1] {
			panic(fmt.Sprintf("des: series times decrease at entry %d: %v after %v", i, s.offsets[i], s.offsets[i-1]))
		}
	}
	if s.n == 0 {
		return Event{}
	}
	var idx int32
	if n := len(e.freeSer); n > 0 {
		idx = e.freeSer[n-1]
		e.freeSer = e.freeSer[:n-1]
	} else {
		e.series = append(e.series, series{})
		idx = int32(len(e.series) - 1)
	}
	e.series[idx] = s
	return e.enqueue(s.at(), fn, local, idx+1, uint64(s.n))
}

// rearm moves series idx, whose pending firing top is at the heap root, on
// to its next firing: the root node is replaced in place by the node that
// firing would have had under bulk scheduling. It reports false, leaving
// the heap untouched, when top was the last firing.
func (e *Engine) rearm(top heapNode, idx int32) bool {
	s := &e.series[idx]
	if s.k+1 == s.n {
		return false
	}
	s.k++
	at := s.at()
	e.replaceTop(heapNode{at: at, seq: top.seq + 1, slot: top.slot})
	if slot := &e.slots[top.slot]; e.tracksComm(slot.local) {
		e.pushComm(commNode{at: at, slot: top.slot, gen: slot.gen})
	}
	return true
}
