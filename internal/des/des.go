// Package des implements a deterministic discrete-event simulation engine.
//
// Every component of the reproduction — the simulated virtual memory, the
// MPI layer, the checkpoint tracker and the synthetic workloads — advances a
// single shared virtual clock owned by an Engine. Events scheduled at the
// same virtual time fire in the order they were scheduled (FIFO tie-break),
// which makes whole-cluster runs bit-for-bit reproducible regardless of host
// scheduling.
//
// An Engine is strictly sequential: the paper's metrics (Incremental
// Working Set, Incremental Bandwidth) are ratios of bytes to virtual time,
// so no host-level parallelism inside one simulation is needed, and
// experiment sweeps parallelise across independent Engine instances.
//
// The event queue is allocation-free in steady state: events live in a slot
// arena recycled through a free-list, the priority queue is an index-based
// 4-ary min-heap (shallower than a binary heap, and its four-child nodes
// share cache lines), and Event handles are small values validated by a
// per-slot generation counter, so Schedule and Step perform no heap
// allocations once the arena has reached its high-water mark.
//
// Queue depth is O(live activities), not O(scheduled firings): an activity
// that fires many times — a sweep's ticks, an iteration's sends — is one
// event series (ScheduleSeries/ScheduleSeriesAt, series.go) holding exactly
// one heap node however many firings remain, with the order and event
// counts it would have had if every firing had been scheduled up front.
//
// Event count is O(observed firings): a series whose intermediate states
// nothing reads can be held (HoldSeries), firing all its firings back
// to back as one event at its last firing's key, and released
// (Event.Release) into the ordinary series the moment something might read
// them — the firings already due run at once and the rest keep their keys.
package des

import (
	"fmt"
	"math"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation. Virtual time has no relation to the host clock.
type Time int64

// Common durations expressed as virtual time deltas.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// MaxTime is the largest representable virtual time. Running an engine
// until MaxTime drains every scheduled event.
const MaxTime Time = math.MaxInt64

// Seconds reports t as a floating-point number of virtual seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time as seconds with millisecond precision.
func (t Time) String() string { return fmt.Sprintf("%.3fs", t.Seconds()) }

// FromSeconds converts a floating-point number of seconds to a Time.
func FromSeconds(s float64) Time { return Time(math.Round(s * float64(Second))) }

// Event is a handle to a scheduled callback, returned by Engine.Schedule
// and friends. It is a small value: copy it freely, compare it to the zero
// Event to test "no event". The zero Event is inert — Cancel and Pending
// on it report false.
//
// Handles are generation-checked: the engine recycles event storage after
// an event fires, and a handle carries the generation it was issued for,
// so Cancel through a stale handle (the event already fired or was
// cancelled) is a detected no-op rather than an aliased write to whatever
// event now occupies the storage.
type Event struct {
	eng  *Engine
	slot int32
	gen  uint32
	at   Time
}

// Time reports the virtual time at which the event will fire (or fired);
// for a series handle, the time of its first firing.
func (e Event) Time() Time { return e.at }

// Cancel removes the event from the queue. Cancelling an event that has
// already fired or been cancelled is a no-op. Cancel reports whether the
// event was still pending. Cancelling a series handle drops every firing
// the series has not yet made.
func (e Event) Cancel() bool {
	if e.eng == nil {
		return false
	}
	s := &e.eng.slots[e.slot]
	if s.gen != e.gen || s.dead {
		return false
	}
	s.dead = true
	return true
}

// Pending reports whether the event is still queued: scheduled, not yet
// fired and not cancelled. A series is pending until its last firing. The
// zero Event is never pending.
func (e Event) Pending() bool {
	if e.eng == nil {
		return false
	}
	s := &e.eng.slots[e.slot]
	return s.gen == e.gen && !s.dead
}

// eventSlot is the arena storage behind one queued event. Slots are
// recycled through the engine's free-list; gen increments at each reap so
// stale handles cannot alias a successor event in the same slot.
type eventSlot struct {
	fn   func()
	gen  uint32
	ser  int32 // 1 + index into Engine.series; 0 for a single event
	dead bool
	held bool // a held series, queued at its last firing (series.go)
	twin bool // a released hold, queued at two keys (Event.Release)
}

// heapNode is one entry of the 4-ary min-heap. The ordering key (at, seq)
// is stored inline so sift comparisons never chase into the arena.
type heapNode struct {
	at   Time
	seq  uint64
	slot int32
}

// before is the heap order: earliest time first, FIFO tie-break on the
// schedule sequence.
func (n heapNode) before(m heapNode) bool {
	return n.at < m.at || (n.at == m.at && n.seq < m.seq)
}

// Engine owns the virtual clock and the pending-event queue.
// The zero value is not usable; call NewEngine.
type Engine struct {
	now     Time
	seq     uint64
	heap    []heapNode
	slots   []eventSlot
	free    []int32
	series  []series // arena behind multi-firing slots (series.go)
	freeSer []int32
	stopped bool
	fired   uint64
	// nowSeq completes the clock to a key: every firing keyed before
	// (now, nowSeq) has run, or would have had it been queued on its own.
	// It is how far Event.Release runs a held series.
	nowSeq uint64
}

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	return &Engine{}
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired reports the total number of events executed so far, a cheap proxy
// for simulation work done (useful in benchmarks).
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports the number of events still queued (including cancelled
// events not yet reaped).
//
//lint:ignore deadexport queue-depth probe the workload event-queue tests bound memory with
func (e *Engine) Pending() int { return len(e.heap) }

// Schedule queues fn to run at absolute virtual time at. Scheduling in the
// past (before Now) panics: it would silently corrupt causality.
func (e *Engine) Schedule(at Time, fn func()) Event {
	return e.enqueue(at, fn, 0, 1, false)
}

// enqueue is the one way into the queue: it takes an arena slot for fn,
// reserves nseq consecutive sequence numbers and pushes the node for the
// first of them (for a held series, the last). ser is the slot's series
// link (0 for a single event, which reserves exactly one number).
func (e *Engine) enqueue(at Time, fn func(), ser int32, nseq uint64, held bool) Event {
	if at < e.now {
		panic(fmt.Sprintf("des: schedule at %v before now %v", at, e.now))
	}
	if fn == nil {
		panic("des: schedule with nil callback")
	}
	var slot int32
	if n := len(e.free); n > 0 {
		slot = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.slots = append(e.slots, eventSlot{})
		slot = int32(len(e.slots) - 1)
	}
	s := &e.slots[slot]
	s.fn = fn
	s.ser = ser
	s.dead = false
	s.held = held
	node := heapNode{at: at, seq: e.seq, slot: slot}
	if held {
		sr := &e.series[ser-1]
		node = sr.key(sr.n-1, slot)
	}
	e.push(node)
	e.seq += nseq
	return Event{eng: e, slot: slot, gen: s.gen, at: at}
}

// After queues fn to run d after the current virtual time.
// A negative d panics.
func (e *Engine) After(d Time, fn func()) Event {
	return e.Schedule(e.now+d, fn)
}

// push inserts n into the 4-ary heap (sift-up).
func (e *Engine) push(n heapNode) {
	h := append(e.heap, n)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !n.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = n
	e.heap = h
}

// takeLast removes and returns the heap's last node — the one that takes
// the root's place (replaceTop) when the minimum is dropped, unless it was
// the minimum itself.
func (e *Engine) takeLast() heapNode {
	last := len(e.heap) - 1
	n := e.heap[last]
	e.heap = e.heap[:last]
	return n
}

// replaceTop overwrites the minimum heap node with n and sifts it down from
// the root: a pop and a push in one pass. The heap must be non-empty.
func (e *Engine) replaceTop(n heapNode) {
	h := e.heap
	i := 0
	for {
		c := 4*i + 1
		if c >= len(h) {
			break
		}
		m := c
		end := c + 4
		if end > len(h) {
			end = len(h)
		}
		for j := c + 1; j < end; j++ {
			if h[j].before(h[m]) {
				m = j
			}
		}
		if !h[m].before(n) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = n
}

// reap frees the arena slot behind a popped node: drop the callback so the
// GC can collect its closure, bump the generation so outstanding handles
// go stale, and return the slot (and its series record, if any) to the
// free-lists.
func (e *Engine) reap(slot int32) {
	s := &e.slots[slot]
	if s.ser != 0 {
		if s.twin {
			// A released hold's slot has two nodes queued (Release): it
			// dies with the first to leave the heap, is freed with the second.
			s.twin = false
			s.dead = true
			return
		}
		e.series[s.ser-1].offsets = nil
		e.freeSer = append(e.freeSer, s.ser-1)
		s.ser = 0
	}
	s.fn = nil
	s.gen++
	e.free = append(e.free, slot)
}

// skipDead reaps cancelled events off the top of the heap and reports
// whether a live event remains. The common case — the top is live — is
// small enough to inline into the run loops.
func (e *Engine) skipDead() bool {
	if len(e.heap) > 0 && !e.slots[e.heap[0].slot].dead {
		return true
	}
	return e.reapDead()
}

// reapDead is skipDead's slow path: the heap is empty or its top is dead.
func (e *Engine) reapDead() bool {
	for len(e.heap) > 0 {
		slot := e.heap[0].slot
		if !e.slots[slot].dead {
			return true
		}
		e.drop(slot)
	}
	return false
}

// fire removes the earliest node, which the caller has established is
// live, advances the clock to its timestamp and runs its callback. A single
// event's slot is reaped; a series with firings left keeps its slot and
// re-enters the heap at its next firing before the callback runs.
func (e *Engine) fire() {
	top := e.heap[0]
	s := &e.slots[top.slot]
	fn := s.fn
	if s.ser == 0 || !e.rearm(top, s.ser-1) {
		if s.ser != 0 && s.held {
			e.fireHeld(top)
			return
		}
		e.drop(top.slot)
	}
	e.now, e.nowSeq = top.at, top.seq
	e.fired++
	fn()
}

// fireHeld is fire for a held series' node: one event that runs the
// callback once per firing, back to back at the node's instant.
func (e *Engine) fireHeld(top heapNode) {
	s := &e.slots[top.slot]
	fn, sr := s.fn, &e.series[s.ser-1]
	runs := sr.n - sr.k
	e.drop(top.slot)
	e.now, e.nowSeq = top.at, top.seq
	e.fired++
	for ; runs > 0; runs-- {
		fn()
	}
}

// drop removes the heap's root node, which belongs to slot, and reaps the
// slot.
func (e *Engine) drop(slot int32) {
	if n := e.takeLast(); len(e.heap) > 0 {
		e.replaceTop(n)
	}
	e.reap(slot)
}

// Stop makes the currently executing Run return after the in-flight event
// completes. Pending events stay queued.
func (e *Engine) Stop() { e.stopped = true }

// Step executes the single earliest pending event, advancing the clock to
// its timestamp. It reports false when the queue is empty.
func (e *Engine) Step() bool {
	if !e.skipDead() {
		return false
	}
	e.fire()
	return true
}

// Run executes events in timestamp order until the queue is empty, an event
// calls Stop, or the next event would fire strictly after until. The clock
// ends at the time of the last executed event, or at until when the run was
// bounded and events remain. Run returns the number of events executed.
func (e *Engine) Run(until Time) uint64 {
	e.stopped = false
	var n uint64
	for !e.stopped && e.skipDead() {
		if e.heap[0].at > until {
			e.now, e.nowSeq = until, e.seq
			break
		}
		e.fire()
		n++
	}
	return n
}

// Ticker fires a callback at a fixed virtual period until cancelled.
// It is the simulation analogue of the instrumentation library's
// setitimer-based alarm.
type Ticker struct {
	eng    *Engine
	period Time
	fn     func(Time)
	fire   func() // the single closure re-armed every period
	ev     Event
	done   bool
}

// NewTicker schedules fn to run every period, with the first firing at
// Now()+period. The callback receives the firing time. period must be
// positive.
func (e *Engine) NewTicker(period Time, fn func(Time)) *Ticker {
	if period <= 0 {
		panic("des: ticker period must be positive")
	}
	t := &Ticker{eng: e, period: period, fn: fn}
	// One closure for the ticker's whole lifetime: re-arming schedules the
	// same func value, so steady-state ticking performs no allocations.
	t.fire = func() {
		if t.done {
			return
		}
		at := t.eng.Now()
		t.fn(at)
		if !t.done {
			t.arm()
		}
	}
	t.arm()
	return t
}

func (t *Ticker) arm() {
	t.ev = t.eng.After(t.period, t.fire)
}

// Stop cancels the ticker. Safe to call from inside the callback.
func (t *Ticker) Stop() {
	if t.done {
		return
	}
	t.done = true
	t.ev.Cancel()
}
