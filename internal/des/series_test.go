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
// A script is a random per-shard program of single events and series, with
// cancellations before and during the run, callbacks that schedule further
// events as they fire and (on a group) comm events that post across
// shards. It is played twice: once through ScheduleSeries*, once through
// the bulk loop the series replaces.

// seriesComm is the comm-class uniform series. It has no exported
// spelling — nothing outside these tests wants one — so they reach the
// core the exported spellings share.
func seriesComm(e *Engine, first, step Time, n int, fn func()) Event {
	return e.scheduleSeries(series{first: first, step: step, n: n}, fn, false)
}

// opSpec is one scripted activity on one engine.
type opSpec struct {
	local   bool
	first   Time   // single events and uniform series
	step    Time   // uniform series
	n       int    // firings; 1 with offsets == nil is a single event
	offsets []Time // explicit firing offsets from first
	cancel  bool   // cancelled straight after scheduling

	// What a single event does when it fires.
	kill  int  // cancel activity kill-1 of the same engine
	spawn Time // schedule a child of the same class this far ahead
	post  Time // post a child to the next shard this far ahead (comm only)
}

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
	eng    *Engine
	next   *Engine // PostTo target; nil on a standalone engine
	bulk   bool
	ops    []opSpec
	cancel []func()
	trace  []firing
}

func (p *player) record(id int) { p.trace = append(p.trace, firing{id, p.eng.Now()}) }

func (p *player) schedule() {
	p.cancel = make([]func(), len(p.ops))
	for id, o := range p.ops {
		fn := p.callback(id, o)
		switch {
		case p.bulk || o.n == 1 && o.offsets == nil:
			evs := make([]Event, o.n)
			for k := range evs {
				evs[k] = p.eng.schedule(o.at(k), fn, o.local)
			}
			p.cancel[id] = func() {
				for _, ev := range evs {
					ev.Cancel()
				}
			}
		default:
			// Straight into the shared core: only two of the four
			// class × shape combinations have an exported spelling.
			ev := p.eng.scheduleSeries(series{first: o.first, step: o.step, offsets: o.offsets, n: o.n}, fn, o.local)
			p.cancel[id] = func() { ev.Cancel() }
		}
		if o.cancel {
			p.cancel[id]()
		}
	}
}

func (p *player) callback(id int, o opSpec) func() {
	child := func() { p.record(-id - 1) }
	return func() {
		p.record(id)
		if o.kill > 0 {
			p.cancel[o.kill-1]()
		}
		if o.spawn > 0 {
			if o.local {
				p.eng.AfterLocal(o.spawn, child)
			} else {
				p.eng.After(o.spawn, child)
			}
		}
		if o.post > 0 && p.next != nil {
			p.eng.PostTo(p.next, p.eng.Now()+o.post, func() {})
		}
	}
}

const scriptLookahead = 2 * Microsecond

// randomScript draws one engine's program, with or without cancellations.
// Times are whole microseconds in a narrow range, so most instants are
// shared by several events.
func randomScript(rng *rand.Rand, cancels bool) []opSpec {
	us := func(n int64) Time { return Time(rng.Int64N(n)) * Microsecond }
	ops := make([]opSpec, 12+rng.IntN(20))
	for i := range ops {
		o := opSpec{local: rng.IntN(2) == 0, first: us(40), n: 1, cancel: cancels && rng.IntN(8) == 0}
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
			case 2:
				if !o.local {
					o.post = scriptLookahead + us(10)
				}
			}
		}
		ops[i] = o
	}
	return ops
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

// On a group the per-shard traces and the total event count must match, and
// so must the critical path — which depends on every epoch's horizons, and
// so on the comm side heap seeing each comm series' pending firing. The
// critical path is compared on the scripts without cancellations only: a
// cancelled bulk-scheduled firing keeps lowering its shard's horizon until
// its node is reaped, the firings a cancelled series never queued do not, so
// after a cancellation the series engine may (safely) cut its epochs
// elsewhere.
func TestPropertySeriesMatchesBulkGroup(t *testing.T) {
	const shards = 3
	for trial := 0; trial < 100; trial++ {
		rng := rand.New(rand.NewPCG(0x6e0b9, uint64(trial)))
		cancels := trial%2 == 0
		scripts := make([][]opSpec, shards)
		for s := range scripts {
			scripts[s] = randomScript(rng, cancels)
		}
		var traces [2][shards][]firing
		var fired, crit [2]uint64
		for mode, bulk := range []bool{false, true} {
			g := NewGroup(shards)
			g.DeclareLookahead(scriptLookahead)
			players := make([]*player, shards)
			for s := range players {
				players[s] = &player{eng: g.Shard(s), next: g.Shard((s + 1) % shards), bulk: bulk, ops: scripts[s]}
				players[s].schedule()
			}
			g.Control().Run(MaxTime)
			for s, p := range players {
				traces[mode][s] = p.trace
			}
			fired[mode], crit[mode] = g.Control().Fired(), g.CriticalPathEvents()
		}
		for s := 0; s < shards; s++ {
			sameTrace(t, fmt.Sprintf("trial %d shard %d", trial, s), traces[0][s], traces[1][s])
		}
		if fired[0] != fired[1] || !cancels && crit[0] != crit[1] {
			t.Fatalf("trial %d: fired/critical path = %d/%d with series, %d/%d bulk-scheduled",
				trial, fired[0], crit[0], fired[1], crit[1])
		}
	}
}

// A series holds one queue entry from creation to its last firing.
func TestSeriesHoldsOneNode(t *testing.T) {
	eng := NewEngine()
	n := 0
	ev := seriesComm(eng, Microsecond, Microsecond, 1000, func() { n++ })
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
	if ev := seriesComm(eng, eng.Now(), 0, 0, func() {}); ev != (Event{}) || eng.Pending() != 0 {
		t.Fatal("an empty series queued something")
	}
}

// Cancelling the handle drops every firing still to come — from outside a
// run and from the series' own callback.
func TestSeriesCancelDropsRemainingFirings(t *testing.T) {
	eng := NewEngine()
	n := 0
	ev := eng.ScheduleSeriesLocal(Microsecond, Microsecond, 10, func() { n++ })
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
	seriesComm(eng, eng.Now(), 1, 4, func() { k++ })
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
	mustPanic("negative step", func() { seriesComm(eng, 10, -1, 3, fn) })
	mustPanic("first firing in the past", func() { seriesComm(eng, 9, 1, 3, fn) })
	mustPanic("nil callback", func() { seriesComm(eng, 10, 1, 3, nil) })
	if eng.Pending() != 0 {
		t.Fatalf("rejected series left %d nodes queued", eng.Pending())
	}
}

// A local event may not start a comm series, exactly as it may not
// Schedule a comm event.
func TestSeriesClassCheckedOnGroup(t *testing.T) {
	g := NewGroup(2)
	g.DeclareLookahead(Microsecond)
	e := g.Shard(0)
	var recovered any
	e.ScheduleSeriesLocal(1, 1, 2, func() {
		defer func() { recovered = recover() }()
		seriesComm(e, e.Now()+1, 1, 2, func() {})
	})
	g.Control().Run(MaxTime)
	if recovered == nil {
		t.Fatal("local series firing started a comm series without a panic")
	}
}

// Steady-state firing, and starting a series once the arenas have grown,
// allocate nothing.
func TestZeroAllocSeries(t *testing.T) {
	eng := NewEngine()
	fn := func() {}
	for i := 0; i < 64; i++ {
		seriesComm(eng, Time(i), Microsecond, 4, fn)
	}
	eng.Run(MaxTime)
	eng.ScheduleSeriesLocal(eng.Now(), Microsecond, 1<<30, fn)
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

// BenchmarkSeriesDeep is the des rung of the ladder for deep queues: 64
// activities of 1,500 firings each, interleaved in time, held as 64 series
// (a 64-node heap) and as the same 96,000 events scheduled up front (a
// 96,000-node heap). Both fire the identical sequence.
func BenchmarkSeriesDeep(b *testing.B) {
	const activities, firings = 64, 1500
	fn := func() {}
	run := func(b *testing.B, schedule func(e *Engine, first Time)) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := NewEngine()
			for a := 0; a < activities; a++ {
				schedule(e, Time(a)*Nanosecond)
			}
			if e.Run(MaxTime) != activities*firings {
				b.Fatal("wrong event count")
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*activities*firings), "ns/event")
	}
	b.Run("series", func(b *testing.B) {
		run(b, func(e *Engine, first Time) { e.ScheduleSeriesLocal(first, Microsecond, firings, fn) })
	})
	b.Run("bulk", func(b *testing.B) {
		run(b, func(e *Engine, first Time) {
			for k := 0; k < firings; k++ {
				e.schedule(first+Time(k)*Microsecond, fn, true)
			}
		})
	})
}
