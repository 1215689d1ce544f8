package des

import (
	"fmt"
	"math"
	"sort"
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
// Held series. holdSeries reserves the same block, but queues its one
// node at the block's last key (at(n-1), seq0+n-1) and, when that node
// fires, calls its counted callback once with the number of firings it
// stands for: one event, and one call, instead of n, for an activity whose
// intermediate states nothing reads between observations and that can do
// n firings' work in closed form. Settle is the observation: the firings
// due so far run as counted calls, each at the clock of the last firing it
// stands for, and the rest stay held behind the same node. Release turns
// the hold back into the ordinary series at any point — the firings
// already due run at once, one call each, the rest keep their reserved
// keys and fire one at a time — so a hold that is released before
// anything could tell the difference is indistinguishable from
// scheduleSeries. The last key is the one the ordinary series' last
// firing carries, so a hold still ties with same-instant events exactly
// as that firing would.

// series is the arena record behind a multi-firing slot: firing k is due at
// first + k*step, or at first + offsets[k] when offsets is non-nil. (Whether
// the slot is held lives in the slot, which has room for it.)
type series struct {
	first, step Time
	offsets     []Time // an Offsets' list, borrowed; not modified
	k, n        int32  // pending firing, total firings
	seq0        uint64 // sequence number reserved for firing 0
	// count is a hold's callback (holdSeries, HoldSeriesAt), handed the
	// number of firings each call stands for; nil for any other series.
	count func(runs int)
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

// scheduleSeries queues fn to fire n times, at first, first+step, …,
// first+(n-1)*step. It is equivalent to n Schedule calls made now, in time
// order, but holds one queue entry. step must not be negative; n == 0
// queues nothing and returns the zero Event. The returned handle covers
// the whole series: Cancel drops every firing still to come. The
// fixed-step forms (scheduleSeries, holdSeries) are this package's own,
// for its tests and rungs; programs use the offsets forms.
func (e *Engine) scheduleSeries(first, step Time, n int, fn func()) Event {
	return e.newSeries(first, step, nil, n, fn, nil)
}

// holdSeries is scheduleSeries for an activity nothing observes except
// through Settle: it reserves the same n sequence numbers, but its one
// queue entry waits at the last firing's key and, when it fires, calls fn
// once with runs = n: one event at that instant standing for all n
// firings (or for those no Settle ran). fn must do runs firings' work and
// must not rely on events in between; the clock it sees is the instant of
// the last firing it stands for (a Release runs the firings it catches up
// at its own instant). Release on the returned handle turns the
// hold back into the ordinary series, whose firings each call fn(1);
// Cancel drops it.
func (e *Engine) holdSeries(first, step Time, n int, fn func(runs int)) Event {
	if fn == nil {
		panic("des: hold with nil callback")
	}
	return e.newSeries(first, step, nil, n, nil, fn)
}

// Release turns a held series (holdSeries, HoldSeriesAt) into the series
// scheduleSeries (ScheduleSeriesAt) would have made. The firings that
// series would already have made run now, in order: inside a callback,
// those keyed before the running event; between calls, those keyed at or
// before the last event fired, or at or before the bound a Run stopped at
// — each a call fn(1). The rest keep the keys they reserved, so they
// interleave with every other event as the ordinary series' firings
// would. On any other handle — a single event, an ordinary series, a hold
// already released, fired or cancelled, the zero Event — Release does
// nothing.
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
	idx := s.ser - 1
	count := e.series[idx].count
	for {
		// Callbacks may grow the arenas or cancel the series: re-read both.
		sr := &e.series[idx]
		if e.slots[ev.slot].dead || sr.k == sr.n || !sr.key(sr.k, ev.slot).before(heapNode{at: e.now, seq: e.nowSeq}) {
			break
		}
		sr.k++
		count(1)
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

// Settle runs a held series' firings that are due — those Release would
// run — as counted calls, and keeps the rest held: the hold's node stays
// at the last firing's key and, when it fires, stands for what is left.
// The due firings of instants before the clock's are one call, made with
// the clock at the last of them; those of the clock's own instant (keyed
// before the running event) are a second call, at that instant. So a
// callback that reads the clock never sees a firing of an earlier
// instant at the running one: an event at instant t settles whatever is
// due before t on t's far side. The hold's last firing is never due: its
// node would have fired. On any other handle — a single event, an
// ordinary series, a hold already released, fired or cancelled, the zero
// Event — Settle does nothing.
func (ev Event) Settle() {
	e := ev.eng
	if e == nil {
		return
	}
	s := &e.slots[ev.slot]
	if s.gen != ev.gen || s.dead || !s.held {
		return
	}
	idx := s.ser - 1
	sr := &e.series[idx]
	bound := heapNode{at: e.now, seq: e.nowSeq}
	if !sr.key(sr.k, ev.slot).before(bound) {
		return // nothing due: read again since the last settle, or not begun
	}
	count, k0 := sr.count, sr.k
	due := sr.k + int32(sort.Search(int(sr.n-1-sr.k), func(i int) bool {
		return !sr.key(sr.k+int32(i), ev.slot).before(bound)
	}))
	early := sr.k + int32(sort.Search(int(due-sr.k), func(i int) bool {
		return sr.time(sr.k+int32(i)) >= e.now
	}))
	if early > k0 {
		last := sr.key(early-1, ev.slot)
		sr.k = early
		now, nowSeq := e.now, e.nowSeq
		e.now, e.nowSeq = last.at, last.seq
		count(int(early - k0))
		e.now, e.nowSeq = now, nowSeq
		// Callbacks may grow the arenas or cancel the series: re-read both.
		if s, sr = &e.slots[ev.slot], &e.series[idx]; s.dead {
			return
		}
	}
	if due > early {
		sr.k = due
		count(int(due - early))
	}
}

// Offsets is a list of firing times relative to a series' base, checked
// non-decreasing once, when it is made (NewOffsets): a decreasing list
// would fire out of the order its sequence numbers imply. The zero value
// is the empty list. One Offsets may back any number of series.
type Offsets struct{ at []Time }

// NewOffsets checks that at is non-decreasing, panicking at the first
// entry that is not, and wraps it. at is borrowed, not copied: it must
// stay unmodified while any series over it has firings to come.
func NewOffsets(at []Time) Offsets {
	for i := 1; i < len(at); i++ {
		if at[i] < at[i-1] {
			panic(fmt.Sprintf("des: series times decrease at entry %d: %v after %v", i, at[i], at[i-1]))
		}
	}
	return Offsets{at}
}

// ScheduleSeriesAt queues fn to fire once per entry of offsets, firing k
// at base+offsets[k]: the series form of one Schedule call per entry, in
// list order. The list was checked when it was made (NewOffsets), so
// starting a series walks none of it.
func (e *Engine) ScheduleSeriesAt(base Time, offsets Offsets, fn func()) Event {
	return e.newSeries(base, 0, offsets.at, len(offsets.at), fn, nil)
}

// HoldSeriesAt is holdSeries over explicit offsets: the hold of
// ScheduleSeriesAt(base, offsets, ·), one event at base+offsets[n-1]
// calling fn(n) unless settled or released first.
func (e *Engine) HoldSeriesAt(base Time, offsets Offsets, fn func(runs int)) Event {
	if fn == nil {
		panic("des: hold with nil callback")
	}
	return e.newSeries(base, 0, offsets.at, len(offsets.at), nil, fn)
}

// newSeries is the core both series shapes share; a non-nil count
// makes the series a hold. offsets, when non-nil, is non-decreasing
// (NewOffsets).
func (e *Engine) newSeries(first, step Time, offsets []Time, n int, fn func(), count func(int)) Event {
	if n < 0 || n > math.MaxInt32 || step < 0 {
		panic(fmt.Sprintf("des: series of %d firings with step %v", n, step))
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
	e.series[idx] = series{first: first, step: step, offsets: offsets, n: int32(n), seq0: e.seq, count: count}
	return e.enqueue(e.series[idx].time(0), fn, idx+1, uint64(n), count != nil)
}

// rearm moves series idx, whose pending firing top is at the heap root, on
// to its next firing: the root node is replaced in place by the node that
// firing would have had under bulk scheduling. It reports false, leaving
// the heap untouched, when top was the last firing. A held series' node
// never comes here (fireCounted).
func (e *Engine) rearm(top heapNode, idx int32) bool {
	s := &e.series[idx]
	if s.k+1 == s.n {
		return false
	}
	s.k++
	e.replaceTop(heapNode{at: s.at(), seq: top.seq + 1, slot: top.slot})
	return true
}
