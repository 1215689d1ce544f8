package des

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

// The property pinned here is the sequence-block invariant of series.go:
// an engine that holds each activity as one series fires exactly what an
// engine does on which every firing of every activity was scheduled up
// front — same callbacks at the same times in the same order, ties with
// other events included.
//
// A script is a random program of single events and series, with
// cancellations before and during the run and callbacks that schedule
// further events as they fire. It is played twice: once through
// scheduleSeries*, once through the bulk loop the series replaces.

// opSpec is one scripted activity on one engine.
type opSpec struct {
	first   Time   // single events and uniform series
	step    Time   // uniform series
	n       int    // firings; 1 with offsets == nil is a single event
	offsets []Time // explicit firing offsets from first
	cancel  bool   // cancelled straight after scheduling
	hold    bool   // a holdSeries series; scripts never cancel one

	// What a single event does when it fires.
	kill    int  // cancel activity kill-1 of the same engine
	spawn   Time // schedule a child this far ahead
	release int  // record markID(release-1), then Release that activity
}

// holdMode is how a series run treats the script's holds.
type holdMode int

const (
	releaseAtMarks holdMode = iota // Release where the script says
	releaseAtOnce                  // Release straight after scheduling
	neverRelease                   // record the marks, never Release
)

// markID is the trace id of a release mark for activity id.
func markID(id int) int { return 1<<16 + id }

func (o opSpec) at(k int) Time {
	if o.offsets != nil {
		return o.first + o.offsets[k]
	}
	return o.first + Time(k)*o.step
}

type firing struct {
	id int
	at Time
}

// player plays one engine's script and records what fired.
type player struct {
	eng     *Engine
	bulk    bool
	holds   holdMode // series run only
	ops     []opSpec
	cancel  []func()
	release []func()
	trace   []firing
	runs    map[int][]int // each hold's counted calls, in order
}

func (p *player) record(id int) { p.trace = append(p.trace, firing{id, p.eng.Now()}) }

func (p *player) schedule() {
	p.cancel = make([]func(), len(p.ops))
	p.release = make([]func(), len(p.ops))
	p.runs = map[int][]int{}
	for id, o := range p.ops {
		fn := p.callback(id, o)
		p.release[id] = func() {}
		switch {
		case o.hold && !p.bulk:
			count := func(runs int) {
				p.runs[id] = append(p.runs[id], runs)
				for ; runs > 0; runs-- {
					fn()
				}
			}
			var ev Event
			if o.offsets != nil {
				ev = p.eng.HoldSeriesAt(o.first, NewOffsets(o.offsets), count)
			} else {
				ev = p.eng.holdSeries(o.first, o.step, o.n, count)
			}
			p.cancel[id] = func() {}
			if p.holds != neverRelease {
				p.release[id] = ev.Release
			}
		case p.bulk || o.n == 1 && o.offsets == nil:
			evs := make([]Event, o.n)
			for k := range evs {
				evs[k] = p.eng.Schedule(o.at(k), fn)
			}
			p.cancel[id] = func() {
				for _, ev := range evs {
					ev.Cancel()
				}
			}
			if o.hold {
				p.cancel[id] = func() {}
			}
			if !p.bulk {
				// Release on a single event is a no-op the trace checks.
				p.release[id] = evs[0].Release
			}
		default:
			// Straight into the core both series shapes share.
			ev := p.eng.newSeries(o.first, o.step, o.offsets, o.n, fn, nil)
			p.cancel[id] = func() { ev.Cancel() }
			p.release[id] = ev.Release // a no-op on an ordinary series
		}
		if o.cancel {
			p.cancel[id]()
		}
	}
	if p.holds == releaseAtOnce {
		for _, r := range p.release {
			r()
		}
	}
}

// releaseNow is a release between engine calls: a mark, then Release.
func (p *player) releaseNow(id int) {
	p.record(markID(id))
	p.release[id]()
}

func (p *player) callback(id int, o opSpec) func() {
	child := func() { p.record(-id - 1) }
	return func() {
		p.record(id)
		if o.release > 0 {
			p.releaseNow(o.release - 1)
		}
		if o.kill > 0 {
			p.cancel[o.kill-1]()
		}
		if o.spawn > 0 {
			p.eng.After(o.spawn, child)
		}
	}
}

// randomScript draws one engine's program, with or without cancellations.
// Times are whole microseconds in a narrow range, so most instants are
// shared by several events.
func randomScript(rng *rand.Rand, cancels bool) []opSpec {
	us := func(n int64) Time { return Time(rng.Int64N(n)) * Microsecond }
	ops := make([]opSpec, 12+rng.IntN(20))
	for i := range ops {
		o := opSpec{first: us(40), n: 1, cancel: cancels && rng.IntN(8) == 0}
		switch rng.IntN(4) {
		case 0: // uniform series; step 0 stacks every firing on one instant
			o.n = rng.IntN(30)
			o.step = us(4)
		case 1: // explicit series with repeated entries
			o.offsets = make([]Time, rng.IntN(30))
			for k := range o.offsets {
				o.offsets[k] = us(60)
			}
			slices.Sort(o.offsets)
			o.n = len(o.offsets)
		default: // single event
			switch rng.IntN(4) {
			case 0:
				if cancels {
					o.kill = 1 + rng.IntN(len(ops))
				}
			case 1:
				o.spawn = 1 + us(10)
			}
		}
		ops[i] = o
	}
	return ops
}

// addHolds turns some of a script's series, uniform (holdSeries) and
// explicit (HoldSeriesAt), into holds and some of its inert single events
// into releases of a random activity (a hold, or anything else, on which
// Release must do nothing).
func addHolds(rng *rand.Rand, ops []opSpec) []opSpec {
	ops = slices.Clone(ops)
	for i := range ops {
		o := &ops[i]
		switch {
		case (o.offsets != nil || o.n != 1) && rng.IntN(2) == 0:
			o.hold, o.cancel = true, false
		case o.offsets == nil && o.n == 1 && o.kill == 0 && o.spawn == 0 && rng.IntN(2) == 0:
			o.release = 1 + rng.IntN(len(ops))
		}
	}
	return ops
}

// heldTrace derives, from one engine's bulk trace, the trace its series run
// must record under the given hold mode, and how many fewer events that run
// fires. A hold's firings run back to back where its one event fires — at
// its last firing's place in the bulk order — unless a release mark comes
// first: then the firings before the mark run at the mark and the rest stay
// where they are. Every other entry is unchanged.
func heldTrace(ops []opSpec, bulk []firing, holds holdMode) ([]firing, uint64) {
	if holds == releaseAtOnce {
		return bulk, 0
	}
	before, after := map[int][]firing{}, map[int][]firing{}
	moved := map[int]bool{}
	var saved uint64
	for h, o := range ops {
		if !o.hold {
			continue
		}
		var at []int
		mark := -1
		for p, f := range bulk {
			if f.id == h {
				at = append(at, p)
			}
			if holds == releaseAtMarks && mark < 0 && f.id == markID(h) {
				mark = p
			}
		}
		if len(at) == 0 {
			continue
		}
		last := at[len(at)-1]
		if mark >= 0 && mark < last {
			for _, p := range at {
				if p < mark {
					moved[p] = true
					after[mark] = append(after[mark], firing{h, bulk[mark].at})
					saved++
				}
			}
			continue
		}
		for _, p := range at[:len(at)-1] {
			moved[p] = true
			before[last] = append(before[last], firing{h, bulk[last].at})
		}
		saved += uint64(len(at) - 1)
	}
	var want []firing
	for p, f := range bulk {
		want = append(want, before[p]...)
		if !moved[p] {
			want = append(want, f)
		}
		want = append(want, after[p]...)
	}
	return want, saved
}

func sameTrace(t *testing.T, what string, got, want []firing) {
	t.Helper()
	if !slices.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("%s: series trace (%d firings) departs from the bulk trace (%d) at firing %d", what, len(got), len(want), i)
	}
}

func TestPropertySeriesMatchesBulkStandalone(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		ops := randomScript(rand.New(rand.NewPCG(0x5e71e5, uint64(trial))), true)
		var traces [2][]firing
		var fired [2]uint64
		for mode, bulk := range []bool{false, true} {
			p := &player{eng: NewEngine(), bulk: bulk, ops: ops}
			p.schedule()
			// Exercise all three drivers: a bounded Run, single Steps, then
			// Run to the end.
			p.eng.Run(10 * Microsecond)
			for i := 0; i < 5; i++ {
				p.eng.Step()
			}
			p.eng.Run(MaxTime)
			if p.eng.Pending() != 0 {
				t.Fatalf("trial %d: %d events left queued", trial, p.eng.Pending())
			}
			traces[mode], fired[mode] = p.trace, p.eng.Fired()
		}
		sameTrace(t, fmt.Sprintf("trial %d", trial), traces[0], traces[1])
		if fired[0] != fired[1] {
			t.Fatalf("trial %d: Fired() = %d with series, %d bulk-scheduled", trial, fired[0], fired[1])
		}
	}
}

var holdModes = []holdMode{releaseAtOnce, releaseAtMarks, neverRelease}

// The held-series property, on a standalone engine: a hold released before
// its first firing is the ordinary series — same trace, same Fired(); a
// hold released anywhere else, from a callback or between calls, gives the
// bulk trace with its due firings caught up at the release; a hold never
// released runs them all at its last key; nothing else moves.
func TestPropertyHeldSeriesStandalone(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewPCG(0x401d, uint64(trial)))
		ops := addHolds(rng, randomScript(rng, true))
		between := []int{rng.IntN(len(ops)), rng.IntN(len(ops))}
		play := func(bulk bool, holds holdMode) ([]firing, uint64, map[int][]int) {
			p := &player{eng: NewEngine(), bulk: bulk, holds: holds, ops: ops}
			p.schedule()
			p.eng.Run(10 * Microsecond)
			for _, id := range between {
				p.releaseNow(id)
			}
			for i := 0; i < 5; i++ {
				p.eng.Step()
			}
			p.eng.Run(MaxTime)
			if p.eng.Pending() != 0 {
				t.Fatalf("trial %d: %d events left queued", trial, p.eng.Pending())
			}
			return p.trace, p.eng.Fired(), p.runs
		}
		bulk, bulkFired, _ := play(true, 0)
		for _, holds := range holdModes {
			got, fired, runs := play(false, holds)
			want, saved := heldTrace(ops, bulk, holds)
			sameTrace(t, fmt.Sprintf("trial %d mode %d", trial, holds), got, want)
			if fired != bulkFired-saved {
				t.Fatalf("trial %d mode %d: Fired() = %d, want %d (bulk %d less %d held)", trial, holds, fired, bulkFired-saved, bulkFired, saved)
			}
			for id, o := range ops {
				if o.hold {
					checkCounted(t, fmt.Sprintf("trial %d mode %d hold %d", trial, holds, id), runs[id], o.n)
				}
			}
		}
	}
}

// checkCounted: a hold's counted callback is handed exactly the firings
// Release did not run. Held to the end, the hold is one call for all n;
// released, every firing — caught up by Release or left to the ordinary
// series — is a call of one.
func checkCounted(t *testing.T, what string, runs []int, n int) {
	t.Helper()
	total, ones := 0, 0
	for _, r := range runs {
		total += r
		if r == 1 {
			ones++
		}
	}
	if total != n || len(runs) != 1 && ones != len(runs) {
		t.Fatalf("%s: counted calls %v for %d firings; want one call of %d, or %d calls of 1", what, runs, n, n, n)
	}
}

// Between engine calls Release runs what the engine has passed: after a
// Step, the firings keyed before the event it fired.
func TestHeldReleaseAfterStep(t *testing.T) {
	eng := NewEngine()
	var got []Time
	var runs []int
	ev := eng.holdSeries(Microsecond, Microsecond, 10, func(r int) {
		runs = append(runs, r)
		for ; r > 0; r-- {
			got = append(got, eng.Now())
		}
	})
	eng.Schedule(5*Microsecond, func() {}) // keyed after the hold's firing at 5 µs
	eng.Step()
	ev.Release()
	if want := []Time{5 * Microsecond, 5 * Microsecond, 5 * Microsecond, 5 * Microsecond, 5 * Microsecond}; !slices.Equal(got, want) {
		t.Fatalf("caught up %v, want %v", got, want)
	}
	eng.Run(MaxTime)
	if len(got) != 10 || got[5] != 6*Microsecond || got[9] != 10*Microsecond || eng.Fired() != 6 {
		t.Fatalf("fired at %v, %d events; want the last five at 6..10 µs, 6 events", got, eng.Fired())
	}
	checkCounted(t, "released after a Step", runs, 10)

	// Never released, the hold is one event and one call for all ten.
	runs, got = nil, nil
	before := eng.Fired()
	eng.holdSeries(eng.Now()+Microsecond, Microsecond, 10, func(r int) {
		runs = append(runs, r)
		got = append(got, eng.Now())
	})
	eng.Run(MaxTime)
	if !slices.Equal(runs, []int{10}) || !slices.Equal(got, []Time{20 * Microsecond}) || eng.Fired()-before != 1 {
		t.Fatalf("held to the end: calls %v at %v, %d events; want one call of 10 at 20 µs", runs, got, eng.Fired()-before)
	}
}

// Settle runs a hold's due firings as counted calls and keeps the rest
// held: inside an event, those of earlier instants as one call at the
// last of them, those of the event's own instant keyed before it as a
// second call at that instant; between calls, what Release would run.
// The hold's node still fires once, for what is left, and no settle is
// an event.
func TestSettleRunsDueFiringsAndKeepsTheHold(t *testing.T) {
	type call struct {
		runs int
		at   Time
	}
	eng := NewEngine()
	var calls []call
	var ev Event
	ev = eng.holdSeries(10*Microsecond, 10*Microsecond, 10, func(r int) {
		calls = append(calls, call{r, eng.Now()})
		ev.Settle() // a settle inside a settled call has nothing left to run
	})
	eng.Schedule(35*Microsecond, ev.Settle)
	eng.Schedule(60*Microsecond, ev.Settle) // keyed after the firing at 60 µs
	eng.Schedule(60*Microsecond, func() {}) // and a no-op settle point after it
	eng.Run(75 * Microsecond)
	ev.Settle() // between calls: the firing at 70 µs, which a Run to 75 µs passed
	ev.Settle()
	eng.Run(MaxTime)
	want := []call{{3, 30 * Microsecond}, {2, 50 * Microsecond}, {1, 60 * Microsecond}, {1, 70 * Microsecond}, {3, 100 * Microsecond}}
	if !slices.Equal(calls, want) {
		t.Fatalf("counted calls %v, want %v", calls, want)
	}
	if eng.Fired() != 4 || eng.Pending() != 0 || ev.Pending() {
		t.Fatalf("%d events, %d nodes left, pending %v; want 4 (the hold's node and three others), none", eng.Fired(), eng.Pending(), ev.Pending())
	}

	// Settled between calls (the clock's instant is the bound a Run
	// stopped at), then released: the rest fire one by one at their keys.
	calls = nil
	ev = eng.holdSeries(eng.Now()+Microsecond, Microsecond, 6, func(r int) { calls = append(calls, call{r, eng.Now()}) })
	base := eng.Now()
	eng.Run(base + 2*Microsecond)
	ev.Settle()
	eng.Run(base + 3*Microsecond)
	ev.Release()
	eng.Run(MaxTime)
	want = []call{{1, base + Microsecond}, {1, base + 2*Microsecond}, {1, base + 3*Microsecond}, {1, base + 4*Microsecond}, {1, base + 5*Microsecond}, {1, base + 6*Microsecond}}
	if !slices.Equal(calls, want) {
		t.Fatalf("settled then released: calls %v, want %v", calls, want)
	}

	// Settle does nothing on anything but a pending hold.
	n := 0
	single := eng.After(Microsecond, func() { n++ })
	ordinary := eng.scheduleSeries(eng.Now()+Microsecond, Microsecond, 3, func() { n++ })
	released := eng.holdSeries(eng.Now()+Microsecond, Microsecond, 3, func(r int) { n += r })
	released.Release()
	eng.Run(eng.Now() + 2*Microsecond)
	for _, h := range []Event{{}, single, ordinary, released, ev} {
		h.Settle()
	}
	if eng.Run(MaxTime); n != 7 {
		t.Fatalf("no-op settles: %d firings, want 7", n)
	}
}

// A hold over explicit offsets (HoldSeriesAt), released between calls at
// any point, is ScheduleSeriesAt with the firings already due caught up at
// the release: against same-instant events scheduled before and after it
// (repeated offsets included), every later firing keeps the place the
// ordinary series gives it, the two reserve the same sequence numbers, and
// Fired() differs by exactly the caught-up firings. Never released, it is
// one event at the last offset's key that calls its callback once with
// runs = n.
func TestHoldSeriesAtMatchesScheduleSeriesAt(t *testing.T) {
	const base = 3 * Microsecond
	offsets := []Time{0, 2 * Microsecond, 2 * Microsecond, 5 * Microsecond, 5 * Microsecond, 5 * Microsecond, 9 * Microsecond}
	const never = Time(-1)
	const series, mark = -1, -2
	play := func(hold bool, cut Time) ([]firing, uint64, []int, uint64) {
		eng := NewEngine()
		var trace []firing
		var runs []int
		rec := func(id int) func() { return func() { trace = append(trace, firing{id, eng.Now()}) } }
		for i, off := range offsets {
			eng.Schedule(base+off, rec(i))
		}
		var ev Event
		if hold {
			ev = eng.HoldSeriesAt(base, NewOffsets(offsets), func(r int) {
				runs = append(runs, r)
				for ; r > 0; r-- {
					rec(series)()
				}
			})
		} else {
			ev = eng.ScheduleSeriesAt(base, NewOffsets(offsets), rec(series))
		}
		seq := eng.seq
		for i, off := range offsets {
			eng.Schedule(base+off, rec(100+i))
		}
		if cut != never {
			eng.Run(cut)
			rec(mark)()
			ev.Release()
		}
		eng.Run(MaxTime)
		return trace, eng.Fired(), runs, seq
	}
	cuts := []Time{never, base - Microsecond, MaxTime - 1}
	for _, off := range slices.Compact(slices.Clone(offsets)) {
		cuts = append(cuts, base+off)
	}
	for _, cut := range cuts {
		want, wantFired, _, wantSeq := play(false, cut)
		got, fired, runs, seq := play(true, cut)
		if seq != wantSeq {
			t.Fatalf("cut %v: the hold reserved up to sequence %d, the ordinary series %d", cut, seq, wantSeq)
		}
		// Derive the held trace from the ordinary one: the series firings
		// before the mark run at the mark; never released, all but the
		// last run where the last one does.
		last, markAt := -1, len(want)
		for p, f := range want {
			switch f.id {
			case series:
				last = p
			case mark:
				markAt = p
			}
		}
		// A cut at or after the last firing's instant finds the hold fired.
		released := markAt < last
		var derived []firing
		caught := 0
		for p, f := range want {
			switch {
			case f.id == series && (!released && p != last || released && p < markAt):
				caught++
			case f.id == series && !released:
				for k := 0; k <= caught; k++ {
					derived = append(derived, f)
				}
			case f.id == mark && released:
				derived = append(derived, f)
				for k := 0; k < caught; k++ {
					derived = append(derived, firing{series, f.at})
				}
			default:
				derived = append(derived, f)
			}
		}
		sameTrace(t, fmt.Sprintf("cut %v", cut), got, derived)
		saved := uint64(caught)
		if !released {
			if !slices.Equal(runs, []int{len(offsets)}) {
				t.Fatalf("cut %v, hold not released: counted calls %v, want one of %d", cut, runs, len(offsets))
			}
		} else {
			checkCounted(t, fmt.Sprintf("cut %v", cut), runs, len(offsets))
		}
		if fired != wantFired-saved {
			t.Fatalf("cut %v: Fired() = %d held, %d ordinary less %d caught up", cut, fired, wantFired, saved)
		}
	}
}

// Cancel drops a hold, before or after its release, and Release does
// nothing on anything but a pending hold.
func TestHeldCancelAndNoOpRelease(t *testing.T) {
	eng := NewEngine()
	n := 0
	fn := func() { n++ }
	count := func(runs int) { n += runs }
	ev := eng.holdSeries(Microsecond, Microsecond, 5, count)
	if !ev.Pending() || ev.Time() != Microsecond || !ev.Cancel() {
		t.Fatal("a hold must be pending from its first firing's time until cancelled")
	}
	ev.Release()
	eng.Run(MaxTime)
	if n != 0 || eng.Pending() != 0 {
		t.Fatalf("cancelled hold fired %d times, %d nodes left", n, eng.Pending())
	}

	ev = eng.holdSeries(eng.Now()+Microsecond, Microsecond, 5, count)
	eng.Run(eng.Now() + 2*Microsecond)
	ev.Release() // catches up two firings; two nodes queued from here
	if n != 2 || eng.Pending() != 2 || !ev.Cancel() {
		t.Fatalf("after release: %d firings, %d nodes", n, eng.Pending())
	}
	eng.Run(MaxTime)
	if n != 2 || eng.Pending() != 0 {
		t.Fatalf("cancelled released hold: %d firings, %d nodes left", n, eng.Pending())
	}

	// A released hold finishing normally frees its slot once, after both nodes.
	ev = eng.holdSeries(eng.Now()+Microsecond, Microsecond, 3, count)
	ev.Release()
	ev.Release()
	eng.Run(MaxTime)
	if n != 5 || eng.Pending() != 0 || ev.Pending() || len(eng.free) != len(eng.slots) {
		t.Fatalf("released hold: %d firings, %d nodes, pending %v, %d of %d slots free", n, eng.Pending(), ev.Pending(), len(eng.free), len(eng.slots))
	}

	before := eng.Fired()
	single := eng.After(Microsecond, fn)
	ordinary := eng.scheduleSeries(eng.Now()+Microsecond, Microsecond, 3, fn)
	fired := eng.holdSeries(eng.Now()+Microsecond, 0, 2, count)
	eng.Run(eng.Now() + Microsecond)
	for _, h := range []Event{{}, single, ordinary, fired} {
		h.Release()
	}
	eng.Run(MaxTime)
	if n != 11 || eng.Fired()-before != 5 {
		t.Fatalf("no-op releases: %d firings, %d events; want 11 and 5", n, eng.Fired()-before)
	}
}

// A series holds one queue entry from creation to its last firing.
func TestSeriesHoldsOneNode(t *testing.T) {
	eng := NewEngine()
	n := 0
	ev := eng.scheduleSeries(Microsecond, Microsecond, 1000, func() { n++ })
	for i := 0; i < 999; i++ {
		if eng.Pending() != 1 || !ev.Pending() {
			t.Fatalf("after %d firings: %d nodes queued, handle pending %v", i, eng.Pending(), ev.Pending())
		}
		eng.Step()
	}
	eng.Step()
	if n != 1000 || eng.Pending() != 0 || ev.Pending() || eng.Now() != 1000*Microsecond {
		t.Fatalf("fired %d, %d queued, pending %v, now %v", n, eng.Pending(), ev.Pending(), eng.Now())
	}
	if ev := eng.scheduleSeries(eng.Now(), 0, 0, func() {}); ev != (Event{}) || eng.Pending() != 0 {
		t.Fatal("an empty series queued something")
	}
}

// Cancelling the handle drops every firing still to come — from outside a
// run and from the series' own callback.
func TestSeriesCancelDropsRemainingFirings(t *testing.T) {
	eng := NewEngine()
	n := 0
	ev := eng.scheduleSeries(Microsecond, Microsecond, 10, func() { n++ })
	eng.Run(3 * Microsecond)
	if !ev.Cancel() || ev.Cancel() || ev.Pending() {
		t.Fatal("first Cancel must report pending, the second not")
	}
	eng.Run(MaxTime)
	if n != 3 || eng.Fired() != 3 {
		t.Fatalf("fired %d (engine %d), want 3", n, eng.Fired())
	}

	var self Event
	m := 0
	self = eng.ScheduleSeriesAt(eng.Now(), NewOffsets([]Time{1, 2, 2, 5, 9}), func() {
		if m++; m == 3 {
			self.Cancel()
		}
	})
	eng.Run(MaxTime)
	if m != 3 || eng.Pending() != 0 {
		t.Fatalf("self-cancelled series fired %d times, %d queued", m, eng.Pending())
	}
	// The cancelled series' slot and record are reusable.
	k := 0
	eng.scheduleSeries(eng.Now(), 1, 4, func() { k++ })
	eng.Run(MaxTime)
	if k != 4 {
		t.Fatalf("series after a cancelled one fired %d times, want 4", k)
	}
}

func TestSeriesRejectsBadSchedules(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	eng := NewEngine()
	eng.Schedule(10, func() {})
	eng.Run(MaxTime)
	fn := func() {}
	// An offsets list is checked once, when it is made, not per series.
	mustPanic("decreasing times", func() { NewOffsets([]Time{0, 5, 4, 9}) })
	NewOffsets([]Time{0, 5, 5, 9}) // repeats are not a decrease
	mustPanic("negative step", func() { eng.scheduleSeries(10, -1, 3, fn) })
	mustPanic("first firing in the past", func() { eng.scheduleSeries(9, 1, 3, fn) })
	mustPanic("nil callback", func() { eng.scheduleSeries(10, 1, 3, nil) })
	if eng.Pending() != 0 {
		t.Fatalf("rejected series left %d nodes queued", eng.Pending())
	}
}

// Steady-state firing, and starting a series once the arenas have grown,
// allocate nothing.
func TestZeroAllocSeries(t *testing.T) {
	eng := NewEngine()
	fn := func() {}
	for i := 0; i < 64; i++ {
		eng.scheduleSeries(Time(i), Microsecond, 4, fn)
	}
	eng.Run(MaxTime)
	eng.scheduleSeries(eng.Now(), Microsecond, 1<<30, fn)
	offsets := NewOffsets([]Time{1, 2, 3, 5})
	if allocs := testing.AllocsPerRun(1000, func() { eng.Step() }); allocs != 0 {
		t.Errorf("series firing allocates %v/op, want 0", allocs)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		ev := eng.ScheduleSeriesAt(eng.Now(), offsets, fn)
		eng.Step()
		ev.Cancel()
	})
	if allocs != 0 {
		t.Errorf("starting a series allocates %v/op, want 0", allocs)
	}
}

// Holding, firing, releasing and settling a series allocate nothing once
// the arenas have grown: neither the one event of a hold nor the second
// node a release queues nor a settle's search.
func TestZeroAllocHeldSeries(t *testing.T) {
	eng := NewEngine()
	fn := func(int) {}
	for i := 0; i < 64; i++ {
		eng.holdSeries(Time(i), Microsecond, 4, fn).Release()
	}
	eng.Run(MaxTime)
	allocs := testing.AllocsPerRun(1000, func() {
		eng.holdSeries(eng.Now(), Microsecond, 8, fn)
		eng.Step()
	})
	if allocs != 0 {
		t.Errorf("hold + fire allocates %v/op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(1000, func() {
		ev := eng.holdSeries(eng.Now(), Microsecond, 8, fn)
		eng.Run(eng.Now() + 3*Microsecond)
		ev.Release()
		eng.Run(MaxTime)
	})
	if allocs != 0 {
		t.Errorf("hold + release + fire allocates %v/op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(1000, func() {
		ev := eng.holdSeries(eng.Now(), Microsecond, 8, fn)
		eng.Run(eng.Now() + 3*Microsecond)
		ev.Settle()
		eng.Run(MaxTime)
	})
	if allocs != 0 {
		t.Errorf("hold + settle + fire allocates %v/op, want 0", allocs)
	}
}

// BenchmarkSeriesDeep is the des rung of the ladder for deep queues: 64
// activities of 1,500 firings each, interleaved in time, held as 64 series
// (a 64-node heap), as the same 96,000 events scheduled up front (a
// 96,000-node heap), and as 64 holds (64 events of 1,500 firings each,
// one counted call apiece). ns/event is per firing.
func BenchmarkSeriesDeep(b *testing.B) {
	const activities, firings = 64, 1500
	fn := func() {}
	count := func(int) {}
	run := func(b *testing.B, events uint64, schedule func(e *Engine, first Time)) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := NewEngine()
			for a := 0; a < activities; a++ {
				schedule(e, Time(a)*Nanosecond)
			}
			if e.Run(MaxTime) != events {
				b.Fatal("wrong event count")
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*activities*firings), "ns/event")
	}
	b.Run("series", func(b *testing.B) {
		run(b, activities*firings, func(e *Engine, first Time) { e.scheduleSeries(first, Microsecond, firings, fn) })
	})
	b.Run("bulk", func(b *testing.B) {
		run(b, activities*firings, func(e *Engine, first Time) {
			for k := 0; k < firings; k++ {
				e.Schedule(first+Time(k)*Microsecond, fn)
			}
		})
	})
	b.Run("held", func(b *testing.B) {
		run(b, activities, func(e *Engine, first Time) { e.holdSeries(first, Microsecond, firings, count) })
	})
}

// BenchmarkSeriesIrregular is the rung for a heap whose sifts cannot be
// predicted: 200 series with unrelated steps and phases, about the live
// queue of a 64-rank run, where BenchmarkSeriesDeep's activities fire in
// a fixed rotation. series queues each activity as an ordinary series;
// held as a hold over the same firing times given as offsets
// (HoldSeriesAt, what every ring link of a workload runner runs its
// messages as): one event and one counted call per activity. ns/event is
// per firing.
func BenchmarkSeriesIrregular(b *testing.B) {
	const activities = 200
	rng := rand.New(rand.NewPCG(1, 2))
	first, step := make([]Time, activities), make([]Time, activities)
	offsets := make([]Offsets, activities)
	var firings int
	for a := range step {
		first[a], step[a] = Time(rng.IntN(5000))*Microsecond, Time(1+rng.IntN(5000))*Microsecond
		at := make([]Time, 2*Second/step[a])
		for k := range at {
			at[k] = Time(k) * step[a]
		}
		offsets[a] = NewOffsets(at)
		firings += len(at)
	}
	fn := func() {}
	count := func(int) {}
	run := func(b *testing.B, schedule func(e *Engine, a int)) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := NewEngine()
			for a := range step {
				schedule(e, a)
			}
			e.Run(MaxTime)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*firings), "ns/event")
	}
	b.Run("series", func(b *testing.B) {
		run(b, func(e *Engine, a int) { e.scheduleSeries(first[a], step[a], len(offsets[a].at), fn) })
	})
	b.Run("held", func(b *testing.B) {
		run(b, func(e *Engine, a int) { e.HoldSeriesAt(first[a], offsets[a], count) })
	})
}
