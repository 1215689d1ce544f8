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
// ScheduleSeries*, once through the bulk loop the series replaces.

// opSpec is one scripted activity on one engine.
type opSpec struct {
	first   Time   // single events and uniform series
	step    Time   // uniform series
	n       int    // firings; 1 with offsets == nil is a single event
	offsets []Time // explicit firing offsets from first
	cancel  bool   // cancelled straight after scheduling
	hold    bool   // a HoldSeries series; scripts never cancel one

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
}

func (p *player) record(id int) { p.trace = append(p.trace, firing{id, p.eng.Now()}) }

func (p *player) schedule() {
	p.cancel = make([]func(), len(p.ops))
	p.release = make([]func(), len(p.ops))
	for id, o := range p.ops {
		fn := p.callback(id, o)
		p.release[id] = func() {}
		switch {
		case o.hold && !p.bulk:
			ev := p.eng.HoldSeries(o.first, o.step, o.n, fn)
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
			ev := p.eng.scheduleSeries(o.first, o.step, o.offsets, o.n, fn, false)
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

// addHolds turns some of a script's uniform series into holds and some of
// its inert single events into releases of a random activity (a hold, or
// anything else, on which Release must do nothing).
func addHolds(rng *rand.Rand, ops []opSpec) []opSpec {
	ops = slices.Clone(ops)
	for i := range ops {
		o := &ops[i]
		switch {
		case o.offsets == nil && o.n != 1 && rng.IntN(2) == 0:
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
		play := func(bulk bool, holds holdMode) ([]firing, uint64) {
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
			return p.trace, p.eng.Fired()
		}
		bulk, bulkFired := play(true, 0)
		for _, holds := range holdModes {
			got, fired := play(false, holds)
			want, saved := heldTrace(ops, bulk, holds)
			sameTrace(t, fmt.Sprintf("trial %d mode %d", trial, holds), got, want)
			if fired != bulkFired-saved {
				t.Fatalf("trial %d mode %d: Fired() = %d, want %d (bulk %d less %d held)", trial, holds, fired, bulkFired-saved, bulkFired, saved)
			}
		}
	}
}

// Between engine calls Release runs what the engine has passed: after a
// Step, the firings keyed before the event it fired.
func TestHeldReleaseAfterStep(t *testing.T) {
	eng := NewEngine()
	var got []Time
	ev := eng.HoldSeries(Microsecond, Microsecond, 10, func() { got = append(got, eng.Now()) })
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
}

// Cancel drops a hold, before or after its release, and Release does
// nothing on anything but a pending hold.
func TestHeldCancelAndNoOpRelease(t *testing.T) {
	eng := NewEngine()
	n := 0
	fn := func() { n++ }
	ev := eng.HoldSeries(Microsecond, Microsecond, 5, fn)
	if !ev.Pending() || ev.Time() != Microsecond || !ev.Cancel() {
		t.Fatal("a hold must be pending from its first firing's time until cancelled")
	}
	ev.Release()
	eng.Run(MaxTime)
	if n != 0 || eng.Pending() != 0 {
		t.Fatalf("cancelled hold fired %d times, %d nodes left", n, eng.Pending())
	}

	ev = eng.HoldSeries(eng.Now()+Microsecond, Microsecond, 5, fn)
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
	ev = eng.HoldSeries(eng.Now()+Microsecond, Microsecond, 3, fn)
	ev.Release()
	ev.Release()
	eng.Run(MaxTime)
	if n != 5 || eng.Pending() != 0 || ev.Pending() || len(eng.free) != len(eng.slots) {
		t.Fatalf("released hold: %d firings, %d nodes, pending %v, %d of %d slots free", n, eng.Pending(), ev.Pending(), len(eng.free), len(eng.slots))
	}

	before := eng.Fired()
	single := eng.After(Microsecond, fn)
	ordinary := eng.ScheduleSeries(eng.Now()+Microsecond, Microsecond, 3, fn)
	fired := eng.HoldSeries(eng.Now()+Microsecond, 0, 2, fn)
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
	ev := eng.ScheduleSeries(Microsecond, Microsecond, 1000, func() { n++ })
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
	if ev := eng.ScheduleSeries(eng.Now(), 0, 0, func() {}); ev != (Event{}) || eng.Pending() != 0 {
		t.Fatal("an empty series queued something")
	}
}

// Cancelling the handle drops every firing still to come — from outside a
// run and from the series' own callback.
func TestSeriesCancelDropsRemainingFirings(t *testing.T) {
	eng := NewEngine()
	n := 0
	ev := eng.ScheduleSeries(Microsecond, Microsecond, 10, func() { n++ })
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
	self = eng.ScheduleSeriesAt(eng.Now(), []Time{1, 2, 2, 5, 9}, func() {
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
	eng.ScheduleSeries(eng.Now(), 1, 4, func() { k++ })
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
	mustPanic("decreasing times", func() { eng.ScheduleSeriesAt(10, []Time{0, 5, 4, 9}, fn) })
	mustPanic("negative step", func() { eng.ScheduleSeries(10, -1, 3, fn) })
	mustPanic("first firing in the past", func() { eng.ScheduleSeries(9, 1, 3, fn) })
	mustPanic("nil callback", func() { eng.ScheduleSeries(10, 1, 3, nil) })
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
		eng.ScheduleSeries(Time(i), Microsecond, 4, fn)
	}
	eng.Run(MaxTime)
	eng.ScheduleSeries(eng.Now(), Microsecond, 1<<30, fn)
	offsets := []Time{1, 2, 3, 5}
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

// Holding, firing and releasing a series allocate nothing once the arenas
// have grown: neither the one event of a hold nor the second node a release
// queues.
func TestZeroAllocHeldSeries(t *testing.T) {
	eng := NewEngine()
	fn := func() {}
	for i := 0; i < 64; i++ {
		eng.HoldSeries(Time(i), Microsecond, 4, fn).Release()
	}
	eng.Run(MaxTime)
	allocs := testing.AllocsPerRun(1000, func() {
		eng.HoldSeries(eng.Now(), Microsecond, 8, fn)
		eng.Step()
	})
	if allocs != 0 {
		t.Errorf("hold + fire allocates %v/op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(1000, func() {
		ev := eng.HoldSeries(eng.Now(), Microsecond, 8, fn)
		eng.Run(eng.Now() + 3*Microsecond)
		ev.Release()
		eng.Run(MaxTime)
	})
	if allocs != 0 {
		t.Errorf("hold + release + fire allocates %v/op, want 0", allocs)
	}
}

// BenchmarkSeriesDeep is the des rung of the ladder for deep queues: 64
// activities of 1,500 firings each, interleaved in time, held as 64 series
// (a 64-node heap), as the same 96,000 events scheduled up front (a
// 96,000-node heap), and as 64 holds (64 events of 1,500 firings each).
// All three run the identical callbacks; ns/event is per firing.
func BenchmarkSeriesDeep(b *testing.B) {
	const activities, firings = 64, 1500
	fn := func() {}
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
		run(b, activities*firings, func(e *Engine, first Time) { e.ScheduleSeries(first, Microsecond, firings, fn) })
	})
	b.Run("bulk", func(b *testing.B) {
		run(b, activities*firings, func(e *Engine, first Time) {
			for k := 0; k < firings; k++ {
				e.Schedule(first+Time(k)*Microsecond, fn)
			}
		})
	})
	b.Run("held", func(b *testing.B) {
		run(b, activities, func(e *Engine, first Time) { e.HoldSeries(first, Microsecond, firings, fn) })
	})
}
