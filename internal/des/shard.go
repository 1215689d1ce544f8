// Sharded parallel execution for the discrete-event engine.
//
// A Group owns N data shards (each an ordinary Engine with its own
// arena-backed heap) plus one control engine, and runs them concurrently on
// worker goroutines while keeping per-seed results bit-identical to a
// sequential run. The synchronisation scheme is conservative parallel DES
// (Chandy–Misra–Bryant style) specialised to this codebase:
//
// Event classes. Every queued event carries a class:
//
//   - comm (the default, Schedule/After/PostTo): may interact with other
//     shards — send messages, post cross-shard events. Comm events are
//     tracked in a per-shard side heap so the group can compute each
//     shard's earliest future communication cheaply.
//   - local (AfterLocal/ScheduleSeriesLocal/HoldSeriesLocal): promises to
//     touch only its own shard's state and to schedule only further local
//     events there.
//     Local events are invisible to the horizon computation, which is
//     what lets a shard burn through its private event mass (page
//     faults, compute ticks) without dragging every other shard's
//     horizon down to the next tick instant.
//   - serial (any event on the Group's control engine): runs at a
//     single-threaded "instant" with all workers parked, and may touch
//     anything — every data shard's state, global coordinators, cluster
//     supervisors. This is the home for centralised components
//     (checkpoint coordinators, autonomic supervisors) that are not
//     worth parallelising but must observe a consistent global cut.
//
// Epoch protocol. The group repeatedly: drains the cross-shard mailboxes
// in canonical order, computes the per-shard causality horizon
//
//	H[s] = min( min_{s' != s} nextComm[s'] + L,  nextComm[s] + 2L,  nextControl )
//
// where L is the declared lookahead (the minimum virtual delay any comm
// event adds when posting to another shard — for the mpi layer, the link
// latency), and runs every shard's events strictly below its horizon in
// parallel. When no shard can make parallel progress (a control event is
// next, a zero-lookahead tie, a same-instant cross-shard cascade), the
// group falls back to executing one virtual instant serially, which is
// always safe and always makes progress. Safety of the parallel phase:
// any message chain that can reach shard s either starts on another
// shard s' — its first hop leaves a comm event at t >= nextComm[s'] and
// arrives at >= t + L >= H[s] — or starts on s itself and boomerangs,
// arriving back no earlier than nextComm[s] + 2L >= H[s] (one hop out,
// one hop back, each adding at least L). Events s executes strictly
// below H[s] therefore commute with everything still in flight.
//
// Mailboxes. Cross-shard posts made during a parallel phase are buffered
// in per-destination mailboxes and drained between phases in canonical
// (time, a, b) order, where (a, b) is (source shard + 1, per-source post
// sequence) for plain posts and a caller-supplied key >= OrderedKeyMin for
// PostToOrdered. The canonical key — never goroutine arrival order —
// decides the FIFO sequence numbers events receive on the destination
// heap, which is what makes the interleaving independent of GOMAXPROCS.
package des

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// controlShard is the Engine.shard index of a Group's control engine.
const controlShard = -1

// OrderedKeyMin is the smallest primary key callers may pass to
// PostToOrdered. Keys below it are reserved for plain PostTo entries
// (source shard + 1), so ordered posts always sort after plain posts at
// the same virtual time, deterministically.
const OrderedKeyMin uint64 = 1 << 32

// commNode is one entry of a shard's communication side-heap: the pending
// comm events ordered by time, used to compute the group horizon. Entries
// go stale when their event fires or is reaped (detected by generation
// mismatch, or for a series by its pending firing having moved on);
// cancelled-but-unreaped events still count, which is merely conservative.
// A comm series has one entry, for its pending firing — the minimum of the
// firings it has left, so the horizon it yields is the one its bulk-scheduled
// firings would have.
type commNode struct {
	at   Time
	slot int32
	gen  uint32
}

// mailEntry is one buffered cross-shard post, ordered by (at, a, b).
type mailEntry struct {
	at   Time
	a, b uint64
	fn   func()
}

type mailbox struct {
	mu      sync.Mutex
	entries []mailEntry
}

// phaseReq tells a parked worker to run its shard up to (bound, until).
type phaseReq struct {
	bound, until Time
}

// Group runs one control engine and n data shards as a single logical
// simulation. Construct with NewGroup, hand Shard(i) engines to per-rank
// components and Control() to centralised ones, then drive the whole
// group through any member engine's Run/Step — grouped engines delegate
// to the group scheduler.
//
// A Group is not safe for concurrent driving: call Run/Step from one
// goroutine only (the parallelism lives inside Run). Now/Pending/Fired on
// member engines are safe only between runs.
type Group struct {
	control *Engine
	shards  []*Engine

	lookahead    Time
	lookaheadSet bool

	boxes    []mailbox // index shard+1; boxes[0] is the control mailbox
	parallel atomic.Bool
	stopped  atomic.Bool
	running  bool

	work   []chan phaseReq // non-nil while a run has workers parked
	wg     sync.WaitGroup  // phase barrier
	exited sync.WaitGroup  // worker lifetimes, waited on by stopWorkers
	counts []uint64
	panics []any // per-shard recovered panic values, re-raised by the driver

	tops, comms, bounds []Time // scratch, driver-only
	busy                []int  // scratch: shards eligible this epoch

	// critPath accumulates the longest per-shard event chain: each
	// parallel epoch adds its busiest shard's count, serial execution
	// adds every event. firedTotal()/critPath is the run's available
	// concurrency — the speedup an unbounded host could realise.
	critPath uint64
}

// NewGroup creates a group with n data shards and one control engine.
func NewGroup(n int) *Group {
	if n < 1 {
		panic("des: group needs at least one shard")
	}
	g := &Group{
		boxes:  make([]mailbox, n+1),
		counts: make([]uint64, n),
		panics: make([]any, n),
		tops:   make([]Time, n),
		comms:  make([]Time, n),
		bounds: make([]Time, n),
		busy:   make([]int, 0, n),
	}
	g.control = &Engine{group: g, shard: controlShard}
	g.shards = make([]*Engine, n)
	for i := range g.shards {
		g.shards[i] = &Engine{group: g, shard: i}
	}
	return g
}

// Shards reports the number of data shards.
func (g *Group) Shards() int { return len(g.shards) }

// Shard returns data shard i.
func (g *Group) Shard(i int) *Engine { return g.shards[i] }

// Control returns the group's control engine. Events scheduled on it run
// serially, with every data shard parked at the same virtual instant, and
// may safely touch any shard's state.
func (g *Group) Control() *Engine { return g.control }

// Group returns the group this engine belongs to, or nil for a
// standalone sequential engine.
func (e *Engine) Group() *Group { return e.group }

// Now reports the group's current virtual time: the maximum member
// clock, i.e. the instant of the most recently fired event (Run and Step
// unify all member clocks before returning). Must not be called from inside
// a parallel phase.
func (g *Group) Now() Time { return g.maxNow() }

// DeclareLookahead records that every cross-shard PostTo made by the
// caller's subsystem carries at least d of virtual delay. The group's
// effective lookahead is the minimum declared by any subsystem (zero if
// none declared — always safe, never fast). Larger lookahead means wider
// parallel epochs.
func (g *Group) DeclareLookahead(d Time) {
	if d < 0 {
		panic("des: negative lookahead")
	}
	if !g.lookaheadSet || d < g.lookahead {
		g.lookahead = d
		g.lookaheadSet = true
	}
}

// Lookahead reports the effective group lookahead.
func (g *Group) Lookahead() Time {
	if !g.lookaheadSet {
		return 0
	}
	return g.lookahead
}

// engineAt maps a mailbox index back to its engine.
func (g *Group) engineAt(box int) *Engine {
	if box == 0 {
		return g.control
	}
	return g.shards[box-1]
}

// PostTo schedules fn at absolute time at on dst, which may live on
// another shard of the same group. During a parallel phase the post is
// buffered in dst's mailbox and delivered at the next epoch boundary in
// canonical order; outside parallel phases (sequential engines, serial
// instants, the driver between phases, dst being the posting engine
// itself) it is a direct schedule. The posted event is a comm event on
// dst.
//
// Contract: at must be at least the posting event's time plus the group
// lookahead when dst is a different shard (the mpi layer guarantees this
// — every cross-rank delay is at least the link latency). Violations that
// would rewind a destination shard panic at drain time.
func (e *Engine) PostTo(dst *Engine, at Time, fn func()) {
	e.postTo(dst, at, 0, 0, false, fn)
}

// PostToOrdered is PostTo with an explicit canonical ordering key. Posts
// buffered for the same destination and virtual time drain in ascending
// (a, b) order regardless of which goroutine posted first; a must be at
// least OrderedKeyMin. Use it when several shards race to emit logically
// simultaneous events (e.g. barrier releases keyed by (generation,
// rank)) whose order must not depend on host scheduling.
func (e *Engine) PostToOrdered(dst *Engine, at Time, a, b uint64, fn func()) {
	if a < OrderedKeyMin {
		panic("des: PostToOrdered key below OrderedKeyMin")
	}
	e.postTo(dst, at, a, b, true, fn)
}

func (e *Engine) postTo(dst *Engine, at Time, a, b uint64, keyed bool, fn func()) {
	if fn == nil {
		panic("des: post with nil callback")
	}
	g := e.group
	if g != nil && e.execLocal {
		panic("des: local event posted a cross-shard event; only comm events may PostTo")
	}
	if g == nil || dst.group != g || dst == e || !g.parallel.Load() {
		dst.schedule(at, fn, false)
		return
	}
	if !keyed {
		a = uint64(e.shard - controlShard) // shard+1; control posts as 0
		b = e.postSeq
		e.postSeq++
	}
	box := &g.boxes[dst.shard-controlShard]
	box.mu.Lock()
	box.entries = append(box.entries, mailEntry{at: at, a: a, b: b, fn: fn})
	box.mu.Unlock()
}

// drain empties every mailbox into its destination heap in canonical
// (time, a, b) order. Driver-only, called between phases with all workers
// parked.
func (g *Group) drain() {
	for i := range g.boxes {
		box := &g.boxes[i]
		if len(box.entries) == 0 {
			continue
		}
		ents := box.entries
		// Keys are unique per destination — plain posts by (src shard,
		// per-source sequence), ordered posts by caller contract — so the
		// order is total and an unstable sort is still deterministic.
		sort.Slice(ents, func(x, y int) bool {
			ex, ey := &ents[x], &ents[y]
			if ex.at != ey.at {
				return ex.at < ey.at
			}
			if ex.a != ey.a {
				return ex.a < ey.a
			}
			return ex.b < ey.b
		})
		dst := g.engineAt(i)
		for k := range ents {
			m := &ents[k]
			if m.at < dst.now {
				panic(fmt.Sprintf("des: cross-shard post at %v behind destination clock %v — lookahead contract violated", m.at, dst.now))
			}
			dst.schedule(m.at, m.fn, false)
			ents[k].fn = nil
		}
		box.entries = ents[:0]
	}
}

// topAlive reaps cancelled events off the top of e's heap and reports the
// time of the earliest live event, or MaxTime when empty.
func (e *Engine) topAlive() Time {
	if e.skipDead() {
		return e.heap[0].at
	}
	return MaxTime
}

// nextCommTime reports the time of e's earliest pending comm event
// (MaxTime if none), popping stale side-heap entries as it goes. An entry
// is stale once its slot was reaped or, for a series, once the series has
// moved past the firing the entry recorded.
func (e *Engine) nextCommTime() Time {
	for len(e.commHeap) > 0 {
		top := e.commHeap[0]
		s := &e.slots[top.slot]
		if s.gen != top.gen || (s.ser != 0 && e.series[s.ser-1].at() != top.at) {
			e.popComm()
			continue
		}
		return top.at
	}
	return MaxTime
}

// pushComm inserts a side-heap entry (binary min-heap by time).
func (e *Engine) pushComm(n commNode) {
	h := append(e.commHeap, n)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].at <= n.at {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = n
	e.commHeap = h
}

// popComm removes the minimum side-heap entry.
func (e *Engine) popComm() {
	h := e.commHeap
	last := len(h) - 1
	n := h[last]
	h = h[:last]
	if last > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= len(h) {
				break
			}
			if c+1 < len(h) && h[c+1].at < h[c].at {
				c++
			}
			if h[c].at >= n.at {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = n
	}
	e.commHeap = h
}

// fireTop is fire for a grouped engine: it also records the executing
// event's class, so a local event that schedules a comm event or posts
// across shards is caught. The caller has established that the heap top is
// live.
func (e *Engine) fireTop() {
	e.execLocal = e.slots[e.heap[0].slot].local
	e.fire()
	e.execLocal = false
}

// runShard executes e's events with at < bound && at <= until, in order.
// Worker-side: runs concurrently with other shards' runShard calls, never
// with the driver.
func (e *Engine) runShard(bound, until Time, stopped *atomic.Bool) uint64 {
	var n uint64
	for {
		at := e.topAlive()
		if at >= bound || at > until {
			return n
		}
		e.fireTop()
		n++
		if stopped.Load() {
			return n
		}
	}
}

// satAdd returns a+b clamped to MaxTime (b non-negative).
func satAdd(a, b Time) Time {
	if a > MaxTime-b {
		return MaxTime
	}
	return a + b
}

// maxNow reports the latest per-engine clock in the group.
func (g *Group) maxNow() Time {
	t := g.control.now
	for _, s := range g.shards {
		if s.now > t {
			t = s.now
		}
	}
	return t
}

// unifyNow advances every engine's clock to at least t, past its firings
// before t — and, with done (a run ending at t), past those queued at t.
func (g *Group) unifyNow(t Time, done bool) {
	for b := range g.boxes {
		e := g.engineAt(b)
		var seq uint64
		if done {
			seq = e.seq
		}
		e.passed(t, seq)
	}
}

// runInstant serialises one virtual instant: every engine's clock is set
// to t, then control events and data-shard events at exactly t execute
// single-threaded (control first, then shards in index order) until the
// instant produces no further work. Cross-shard posts made here insert
// directly, so same-instant cascades across shards resolve within the
// instant, exactly as a sequential engine would resolve them.
func (g *Group) runInstant(t Time) uint64 {
	g.unifyNow(t, false)
	var n uint64
	for {
		ran := false
		for g.control.topAlive() == t {
			g.control.fireTop()
			n++
			ran = true
			if g.stopped.Load() {
				return n
			}
		}
		g.control.passed(t, g.control.seq)
		for _, s := range g.shards {
			for s.topAlive() == t {
				s.fireTop()
				n++
				ran = true
				if g.stopped.Load() {
					return n
				}
			}
			s.passed(t, s.seq)
		}
		if !ran {
			return n
		}
	}
}

// startWorkers spawns one parked goroutine per shard, on the first
// parallel phase of a run. Workers live exactly as long as that run:
// stopWorkers releases them when it returns, so an abandoned group
// leaves no goroutine (and no shard state pinned by one) behind.
func (g *Group) startWorkers() {
	g.work = make([]chan phaseReq, len(g.shards))
	g.exited.Add(len(g.shards))
	for i := range g.shards {
		ch := make(chan phaseReq)
		g.work[i] = ch
		s := g.shards[i]
		idx := i
		go func() {
			defer g.exited.Done()
			for req := range ch {
				func() {
					defer func() {
						if r := recover(); r != nil {
							g.panics[idx] = r
							g.stopped.Store(true)
						}
					}()
					g.counts[idx] = s.runShard(req.bound, req.until, &g.stopped)
				}()
				g.wg.Done()
			}
		}()
	}
}

// stopWorkers closes the work channels and waits for the workers to
// exit. Driver-only, with every worker parked.
func (g *Group) stopWorkers() {
	for _, ch := range g.work {
		close(ch)
	}
	g.work = nil
	g.exited.Wait()
}

// phase runs every busy shard concurrently up to its bound. g.busy lists
// the shards with work this epoch; idle shards are never dispatched. With
// a single busy shard — or a single-processor host, where worker
// round-trips cost latency and buy nothing — the driver runs the shards
// inline instead. Both paths keep parallel set for their duration, so
// cross-shard posts buffer into mailboxes and drain in canonical order
// regardless of which path executed the events.
func (g *Group) phase(until Time) uint64 {
	g.parallel.Store(true)
	if len(g.busy) == 1 || runtime.GOMAXPROCS(0) == 1 {
		// Inline: a panicking event unwinds straight through Run, exactly
		// like a sequential engine.
		defer g.parallel.Store(false)
		var n, maxc uint64
		for _, i := range g.busy {
			c := g.shards[i].runShard(g.bounds[i], until, &g.stopped)
			n += c
			if c > maxc {
				maxc = c
			}
			if g.stopped.Load() {
				break
			}
		}
		g.critPath += maxc
		return n
	}
	if g.work == nil {
		g.startWorkers()
	}
	g.wg.Add(len(g.busy))
	for _, i := range g.busy {
		g.work[i] <- phaseReq{bound: g.bounds[i], until: until}
	}
	g.wg.Wait()
	g.parallel.Store(false)
	for i, p := range g.panics {
		if p != nil {
			g.panics[i] = nil
			// Re-raise on the driver so a panicking event crashes Run the
			// same way it would on a sequential engine.
			panic(p)
		}
	}
	var n, maxc uint64
	for _, i := range g.busy {
		c := g.counts[i]
		n += c
		if c > maxc {
			maxc = c
		}
	}
	g.critPath += maxc
	return n
}

// run is the epoch driver behind Engine.Run for grouped engines.
func (g *Group) run(until Time) uint64 {
	if g.running {
		panic("des: nested Run on a sharded engine group")
	}
	g.running = true
	defer func() {
		g.stopWorkers()
		g.running = false
	}()
	g.stopped.Store(false)
	L := g.Lookahead()
	var fired uint64
	for {
		g.drain()
		if g.stopped.Load() {
			break
		}
		ctop := g.control.topAlive()
		floor := ctop
		for i, s := range g.shards {
			t := s.topAlive()
			g.tops[i] = t
			if t < floor {
				floor = t
			}
		}
		if floor == MaxTime {
			// Fully drained: unify clocks at the global frontier, like a
			// sequential engine ending at its last executed event.
			g.unifyNow(g.maxNow(), true)
			break
		}
		if floor > until {
			g.unifyNow(until, true)
			break
		}
		if ctop == floor {
			n := g.runInstant(floor)
			g.critPath += n
			fired += n
			continue
		}
		// Per-shard horizons: min over the *other* shards' next comm, via
		// the global min and second-min of the comm floors.
		min1, min2 := MaxTime, MaxTime
		argmin := -1
		for i, s := range g.shards {
			c := s.nextCommTime()
			g.comms[i] = c
			if c < min1 {
				min2 = min1
				min1 = c
				argmin = i
			} else if c < min2 {
				min2 = c
			}
		}
		g.busy = g.busy[:0]
		for i := range g.shards {
			other := min1
			if i == argmin {
				other = min2
			}
			bound := satAdd(other, L)
			// The boomerang term: s's own sends can come back after a
			// round trip, so s may not outrun its earliest send + 2L.
			if own := satAdd(g.comms[i], satAdd(L, L)); own < bound {
				bound = own
			}
			if ctop < bound {
				bound = ctop
			}
			g.bounds[i] = bound
			if g.tops[i] < bound && g.tops[i] <= until {
				g.busy = append(g.busy, i)
			}
		}
		if len(g.busy) == 0 {
			// Zero-lookahead tie or a same-instant cross-shard cascade:
			// serialise this instant and try again.
			n := g.runInstant(floor)
			g.critPath += n
			fired += n
			continue
		}
		fired += g.phase(until)
	}
	return fired
}

// step executes the single globally earliest pending event (control
// first on ties, then shards in index order), advancing every engine's
// clock to its instant. Driver-side single-threaded; cross-shard posts
// insert directly.
func (g *Group) step() bool {
	g.drain()
	best := g.control
	at := g.control.topAlive()
	for _, s := range g.shards {
		if t := s.topAlive(); t < at {
			at = t
			best = s
		}
	}
	if at == MaxTime {
		return false
	}
	// Every clock moves to at, as a sequential engine's would. In the tie
	// order the engines ahead of best have nothing left at that instant,
	// and those behind it have not started on it.
	ahead := true
	for b := range g.boxes {
		e := g.engineAt(b)
		if e == best {
			ahead = false
			continue
		}
		var seq uint64
		if ahead {
			seq = e.seq
		}
		e.passed(at, seq)
	}
	best.fireTop()
	g.critPath++
	return true
}

// pending sums queued events across the group (between runs only).
func (g *Group) pending() int {
	n := len(g.control.heap)
	for _, s := range g.shards {
		n += len(s.heap)
	}
	for i := range g.boxes {
		n += len(g.boxes[i].entries)
	}
	return n
}

// firedTotal sums executed events across the group (between runs only).
func (g *Group) firedTotal() uint64 {
	n := g.control.fired
	for _, s := range g.shards {
		n += s.fired
	}
	return n
}

// CriticalPathEvents reports the length of the longest dependent event
// chain executed so far: serial instants count every event, parallel
// epochs count only their busiest shard's. Fired()/CriticalPathEvents()
// is the run's available concurrency — the parallel speedup an unbounded
// host could realise — and, unlike wall-clock, it is deterministic per
// seed and shard count. Read between runs only.
func (g *Group) CriticalPathEvents() uint64 { return g.critPath }
