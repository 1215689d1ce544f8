package des

import (
	"fmt"
	"math"
)

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
// scheduled up front: the dequeue order of the whole engine, Fired() and
// the tie-breaks against same-instant events are the bulk-scheduled ones by
// construction. A callback that re-arms itself with After is not
// equivalent: it draws a fresh sequence number at each firing and so moves
// behind every event scheduled in between for the same instant.
//
// The one difference is after a Cancel. Bulk-scheduled firings that were
// cancelled stay queued until each is popped; a cancelled series leaves one
// dead node. What fires, and when, is still identical.
//
// Held series. HoldSeries reserves the same block, but queues its one
// node at the block's last key (at(n-1), seq0+n-1) and, when that node
// fires, runs every firing there, back to back: one event instead of n,
// for an activity whose intermediate states nothing reads. Release turns
// the hold back into the ordinary series at any point — the firings
// already due run at once, the rest keep their reserved keys — so a hold
// that is released before anything could tell the difference is
// indistinguishable from ScheduleSeries. The last key is the one the
// ordinary series' last firing carries, so a never-released hold still ties
// with same-instant events exactly as that firing would.

// series is the arena record behind a multi-firing slot: firing k is due at
// first + k*step, or at first + offsets[k] when offsets is non-nil. (Whether
// the slot is held lives in the slot, which has room for it.)
type series struct {
	first, step Time
	offsets     []Time // borrowed from the caller; not modified
	k, n        int32  // pending firing, total firings
	seq0        uint64 // sequence number reserved for firing 0
}

// time reports when firing k is due.
func (s *series) time(k int32) Time {
	if s.offsets != nil {
		return s.first + s.offsets[k]
	}
	return s.first + Time(k)*s.step
}

// at reports the time of the pending firing.
func (s *series) at() Time { return s.time(s.k) }

// key reports the heap key firing k would carry under bulk scheduling.
func (s *series) key(k int32, slot int32) heapNode {
	return heapNode{at: s.time(k), seq: s.seq0 + uint64(k), slot: slot}
}

// ScheduleSeries queues fn to fire n times, at first, first+step, …,
// first+(n-1)*step. It is equivalent to n Schedule calls made now, in time
// order, but holds one queue entry. step must not be negative; n == 0
// queues nothing and returns the zero Event. The returned handle covers
// the whole series: Cancel drops every firing still to come.
func (e *Engine) ScheduleSeries(first, step Time, n int, fn func()) Event {
	return e.scheduleSeries(first, step, nil, n, fn, false)
}

// HoldSeries is ScheduleSeries for an activity nothing observes until it
// is over: it reserves the same n sequence numbers, but its one queue
// entry waits at the last firing's key and, when it fires, runs fn n times
// in a row at that instant, as one event. Callbacks must not rely on the
// clock or on events in between, and cannot cancel the firings that run
// with them. Release on the returned handle turns it back into the
// ordinary series; Cancel drops it.
func (e *Engine) HoldSeries(first, step Time, n int, fn func()) Event {
	return e.scheduleSeries(first, step, nil, n, fn, true)
}

// Release turns a held series (HoldSeries) into the series ScheduleSeries
// would have made. The firings that series would already have made run
// now, in order: inside a callback, those keyed before the running event;
// between calls, those keyed at or before the last event fired, or at or
// before the bound a Run stopped at. The rest keep the keys they reserved,
// so they interleave with every other event as the ordinary series'
// firings would. On any other handle — a single event, an ordinary series,
// a hold already released, fired or cancelled, the zero Event — Release
// does nothing.
func (ev Event) Release() {
	e := ev.eng
	if e == nil {
		return
	}
	s := &e.slots[ev.slot]
	if s.gen != ev.gen || s.dead || !s.held {
		return
	}
	s.held = false
	idx, fn := s.ser-1, s.fn
	for {
		// Callbacks may grow the arenas or cancel the series: re-read both.
		sr := &e.series[idx]
		if e.slots[ev.slot].dead || sr.k == sr.n || !sr.key(sr.k, ev.slot).before(heapNode{at: e.now, seq: e.nowSeq}) {
			break
		}
		sr.k++
		fn()
	}
	s, sr := &e.slots[ev.slot], &e.series[idx]
	switch {
	case s.dead:
	case sr.k == sr.n:
		// Nothing left: the held node is reaped as a cancelled one.
		s.dead = true
	default:
		// The held node stays where it is, at the last firing's key; the
		// series re-enters at its pending firing and the slot lives until
		// both nodes have left the heap (reap).
		s.twin = true
		e.push(sr.key(sr.k, ev.slot))
	}
}

// ScheduleSeriesAt queues fn to fire len(offsets) times, firing k at
// base+offsets[k]: the series form of one Schedule call per entry, in
// slice order. offsets must be non-decreasing (checked here — a decreasing
// list would fire out of the order its sequence numbers imply) and is
// borrowed, not copied: it must stay unmodified until the series has
// finished or been cancelled. One list may back any number of series.
func (e *Engine) ScheduleSeriesAt(base Time, offsets []Time, fn func()) Event {
	return e.scheduleSeries(base, 0, offsets, len(offsets), fn, false)
}

func (e *Engine) scheduleSeries(first, step Time, offsets []Time, n int, fn func(), held bool) Event {
	if n < 0 || n > math.MaxInt32 || step < 0 {
		panic(fmt.Sprintf("des: series of %d firings with step %v", n, step))
	}
	for i := 1; i < len(offsets); i++ {
		if offsets[i] < offsets[i-1] {
			panic(fmt.Sprintf("des: series times decrease at entry %d: %v after %v", i, offsets[i], offsets[i-1]))
		}
	}
	if n == 0 {
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
	e.series[idx] = series{first: first, step: step, offsets: offsets, n: int32(n), seq0: e.seq}
	return e.enqueue(e.series[idx].time(0), fn, idx+1, uint64(n), held)
}

// rearm moves series idx, whose pending firing top is at the heap root, on
// to its next firing: the root node is replaced in place by the node that
// firing would have had under bulk scheduling. It reports false, leaving
// the heap untouched, when top was the last firing or the series is held.
func (e *Engine) rearm(top heapNode, idx int32) bool {
	s := &e.series[idx]
	if s.k+1 == s.n || e.slots[top.slot].held {
		return false
	}
	s.k++
	e.replaceTop(heapNode{at: s.at(), seq: top.seq + 1, slot: top.slot})
	return true
}
