package des

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"
)

// tracePt is one observed event execution on a rank's own timeline.
type tracePt struct {
	at  Time
	tag int
}

// traceSim is a synthetic multi-rank workload whose per-rank execution
// trace must be identical on a sequential engine and on every shard
// count: each rank runs a chain of comm events that spawn local events
// and post continuations to other ranks with delays >= the declared
// lookahead.
type traceSim struct {
	engs   []*Engine
	traces [][]tracePt
	la     Time
	hops   int
}

func newTraceSim(ranks int, shards int, la Time, hops int) *traceSim {
	ts := &traceSim{
		engs:   make([]*Engine, ranks),
		traces: make([][]tracePt, ranks),
		la:     la,
		hops:   hops,
	}
	if shards == 0 {
		eng := NewEngine()
		for i := range ts.engs {
			ts.engs[i] = eng
		}
	} else {
		g := NewGroup(shards)
		g.DeclareLookahead(la)
		for i := range ts.engs {
			ts.engs[i] = g.Shard(i % shards)
		}
	}
	return ts
}

// chain executes hop k of rank r's comm chain: record, spawn a local
// event, and post the next hop to a pseudo-random other rank at a delay
// that is always >= the lookahead (and sometimes exactly equal to it, so
// events land exactly on the causality horizon).
func (ts *traceSim) chain(r, k int) {
	eng := ts.engs[r]
	now := eng.Now()
	ts.traces[r] = append(ts.traces[r], tracePt{at: now, tag: k})
	if k >= ts.hops {
		return
	}
	self := r
	eng.AfterLocal(Time(1+(k%3)), func() {
		ts.traces[self] = append(ts.traces[self], tracePt{at: ts.engs[self].Now(), tag: -k})
	})
	dst := (r + 1 + k*7) % len(ts.engs)
	extra := Time((r * 31 * k) % 5) // 0 => post lands exactly at the horizon
	eng.PostTo(ts.engs[dst], now+ts.la+extra, func() { ts.chain(dst, k+1) })
}

func (ts *traceSim) start() {
	for i := range ts.engs {
		r := i
		ts.engs[i].Schedule(Time(i), func() { ts.chain(r, 0) })
	}
}

func (ts *traceSim) run(until Time) uint64 {
	ts.start()
	return ts.engs[0].Run(until)
}

// normalize sorts runs of same-time points by tag. Within one virtual
// instant the engine guarantees a canonical — but not
// sequential-identical — interleaving of events arriving from different
// shards (mailbox key order vs global schedule order), so same-instant
// runs are compared as sets; the across-instant order must be exact.
// Bit-equality of real observables under same-instant reordering is
// covered by the workload-level digest tests in internal/experiments.
func normalize(traces [][]tracePt) {
	for _, tr := range traces {
		i := 0
		for i < len(tr) {
			j := i + 1
			for j < len(tr) && tr[j].at == tr[i].at {
				j++
			}
			sort.Slice(tr[i:j], func(x, y int) bool { return tr[i+x].tag < tr[i+y].tag })
			i = j
		}
	}
}

func sameTraces(t *testing.T, want, got [][]tracePt, label string) {
	t.Helper()
	normalize(want)
	normalize(got)
	for r := range want {
		if len(want[r]) != len(got[r]) {
			t.Fatalf("%s: rank %d trace length %d, want %d", label, r, len(got[r]), len(want[r]))
		}
		for i := range want[r] {
			if want[r][i] != got[r][i] {
				t.Fatalf("%s: rank %d event %d = %+v, want %+v", label, r, i, got[r][i], want[r][i])
			}
		}
	}
}

// TestGroupSequentialEquivalence pins the core determinism claim: the
// per-rank execution traces, event counts, and clocks of a sharded run
// are identical to the sequential engine's at every shard count,
// including a lookahead of zero (where only serial instants can make
// cross-shard progress) and events posted exactly at the horizon.
func TestGroupSequentialEquivalence(t *testing.T) {
	for _, la := range []Time{0, 3} {
		ref := newTraceSim(8, 0, la, 40)
		refFired := ref.run(MaxTime)
		for _, shards := range []int{1, 2, 3, 8} {
			got := newTraceSim(8, shards, la, 40)
			gotFired := got.run(MaxTime)
			label := fmt.Sprintf("lookahead=%d shards=%d", la, shards)
			if gotFired != refFired {
				t.Fatalf("%s: Run returned %d events, want %d", label, gotFired, refFired)
			}
			if got.engs[0].Fired() != ref.engs[0].Fired() {
				t.Fatalf("%s: Fired() = %d, want %d", label, got.engs[0].Fired(), ref.engs[0].Fired())
			}
			if got.engs[0].Now() != ref.engs[0].Now() {
				t.Fatalf("%s: Now() = %v, want %v", label, got.engs[0].Now(), ref.engs[0].Now())
			}
			sameTraces(t, ref.traces, got.traces, label)
		}
	}
}

// TestGroupBoundedRunClock checks clock unification of bounded runs:
// every member engine ends at exactly until when events remain.
func TestGroupBoundedRunClock(t *testing.T) {
	ref := newTraceSim(4, 0, 2, 30)
	const until = 25 * Nanosecond
	refFired := ref.run(until)
	for _, shards := range []int{2, 4} {
		got := newTraceSim(4, shards, 2, 30)
		if f := got.run(until); f != refFired {
			t.Fatalf("shards=%d: fired %d, want %d", shards, f, refFired)
		}
		sameTraces(t, ref.traces, got.traces, fmt.Sprintf("shards=%d", shards))
		g := got.engs[0].group
		if g.Control().Now() != until {
			t.Fatalf("control clock %v, want %v", g.Control().Now(), until)
		}
		for i := 0; i < g.Shards(); i++ {
			if g.Shard(i).Now() != until {
				t.Fatalf("shard %d clock %v, want %v", i, g.Shard(i).Now(), until)
			}
		}
		if got.engs[0].Pending() != ref.engs[0].Pending() {
			t.Fatalf("shards=%d: Pending %d, want %d", shards, got.engs[0].Pending(), ref.engs[0].Pending())
		}
	}
}

// TestGroupCounterAggregation pins the Pending/Fired aggregation fix:
// grouped engines report group-wide sums equal to the sequential run at
// a mid-run cut with events still queued.
func TestGroupCounterAggregation(t *testing.T) {
	ref := newTraceSim(6, 0, 1, 60)
	const until = 40 * Nanosecond
	ref.run(until)
	wantPending, wantFired := ref.engs[0].Pending(), ref.engs[0].Fired()
	if wantPending == 0 {
		t.Fatal("test needs leftover pending events at the cut")
	}
	for _, shards := range []int{1, 3, 6} {
		got := newTraceSim(6, shards, 1, 60)
		got.run(until)
		if p := got.engs[0].Pending(); p != wantPending {
			t.Fatalf("shards=%d: Pending() = %d, want %d", shards, p, wantPending)
		}
		if f := got.engs[0].Fired(); f != wantFired {
			t.Fatalf("shards=%d: Fired() = %d, want %d", shards, f, wantFired)
		}
	}
}

// TestZeroLookaheadHorizonEdge pins the exact horizon edge case: with
// zero lookahead, a cross-shard post at precisely the posting event's
// own time (at == horizon) must still execute at that time, via the
// serialised-instant fallback, and same-instant cross-shard cascades
// must resolve within the instant.
func TestZeroLookaheadHorizonEdge(t *testing.T) {
	g := NewGroup(2)
	g.DeclareLookahead(0)
	var order []string
	var mu sync.Mutex
	note := func(s string) { mu.Lock(); order = append(order, s); mu.Unlock() }
	a, b := g.Shard(0), g.Shard(1)
	a.Schedule(10, func() {
		note("a@10")
		// Exactly at the horizon: zero delay, cross-shard.
		a.PostTo(b, 10, func() {
			note("b@10")
			b.PostTo(a, 10, func() { note("a2@10") })
		})
	})
	b.Schedule(20, func() { note("b@20") })
	if fired := a.Run(MaxTime); fired != 4 {
		t.Fatalf("fired %d events, want 4", fired)
	}
	want := []string{"a@10", "b@10", "a2@10", "b@20"}
	if len(order) != len(want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
	if a.Now() != 20 || b.Now() != 20 {
		t.Fatalf("clocks a=%v b=%v, want 20 after drain", a.Now(), b.Now())
	}
}

// TestControlEngineSerialInstants checks that control events observe
// every shard parked at the same instant and may schedule onto shards
// with zero delay.
func TestControlEngineSerialInstants(t *testing.T) {
	g := NewGroup(3)
	g.DeclareLookahead(5)
	var got []Time
	for i := 0; i < g.Shards(); i++ {
		s := g.Shard(i)
		s.Schedule(Time(7+i), func() {})
	}
	ctl := g.Control()
	ctl.Schedule(50, func() {
		for i := 0; i < g.Shards(); i++ {
			got = append(got, g.Shard(i).Now())
			// Control may reach into any shard with zero delay.
			sh := g.Shard(i)
			sh.Schedule(50, func() {})
		}
	})
	ctl.Run(MaxTime)
	for i, at := range got {
		if at != 50 {
			t.Fatalf("shard %d clock at control instant = %v, want 50", i, at)
		}
	}
	if f := ctl.Fired(); f != 7 {
		t.Fatalf("fired %d, want 7 (3 shard + 1 control + 3 injected)", f)
	}
}

// TestGroupStepOrder checks single-stepping a group fires events in
// global time order with the control engine winning ties.
func TestGroupStepOrder(t *testing.T) {
	g := NewGroup(2)
	var order []string
	g.Shard(1).Schedule(5, func() { order = append(order, "s1@5") })
	g.Shard(0).Schedule(3, func() { order = append(order, "s0@3") })
	g.Control().Schedule(5, func() { order = append(order, "ctl@5") })
	eng := g.Shard(0)
	n := 0
	for eng.Step() {
		n++
	}
	if n != 3 {
		t.Fatalf("stepped %d events, want 3", n)
	}
	want := []string{"s0@3", "ctl@5", "s1@5"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

// TestGroupStop checks Stop from inside a sharded event halts the whole
// group promptly, keeps pending events queued, and that a later Run
// resumes them.
func TestGroupStop(t *testing.T) {
	g := NewGroup(2)
	g.DeclareLookahead(1)
	eng := g.Shard(0)
	var after int
	eng.Schedule(10, func() { eng.Stop() })
	g.Shard(1).Schedule(1000, func() { after++ })
	eng.Run(MaxTime)
	if after != 0 {
		t.Fatal("event after Stop executed in the same run")
	}
	if p := eng.Pending(); p != 1 {
		t.Fatalf("Pending after Stop = %d, want 1", p)
	}
	eng.Run(MaxTime)
	if after != 1 {
		t.Fatal("pending event did not survive Stop")
	}
}

// TestLocalEventCannotGoCross pins the event-class contract: a local
// event scheduling a comm event (or posting cross-shard) panics, because
// local events are invisible to the horizon computation and letting them
// emit communication would break the causality proof.
func TestLocalEventCannotGoCross(t *testing.T) {
	g := NewGroup(2)
	eng := g.Shard(0)
	eng.AfterLocal(1, func() {
		eng.After(1, func() {})
	})
	defer func() {
		if recover() == nil {
			t.Fatal("local event scheduling a comm event did not panic")
		}
	}()
	eng.Step()
}

// TestWorkerPanicPropagates checks a panic inside a parallel-phase event
// re-raises on the Run caller, as it would on a sequential engine.
func TestWorkerPanicPropagates(t *testing.T) {
	g := NewGroup(2)
	g.DeclareLookahead(1)
	g.Shard(0).Schedule(5, func() {})
	g.Shard(1).Schedule(6, func() { panic("boom") })
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	g.Shard(0).Run(MaxTime)
}

// TestPostToOrderedCanonical checks that keyed posts from racing shards
// drain in key order, not in goroutine arrival order: two shards each
// post an ordered event to a third shard at the same virtual time from a
// parallel phase; the drained execution order must follow the keys
// (shard 2's key sorts first even though shard 1 posts "earlier" in
// index order).
func TestPostToOrderedCanonical(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		g := NewGroup(3)
		g.DeclareLookahead(10)
		var order []uint64
		dst := g.Shard(0)
		for i := 1; i < 3; i++ {
			src := g.Shard(i)
			key := uint64(3 - i) // shard 1 posts key 2, shard 2 posts key 1
			src.Schedule(5, func() {
				k := key
				src.PostToOrdered(dst, 100, OrderedKeyMin, k, func() {
					order = append(order, k)
				})
			})
		}
		dst.Run(MaxTime)
		if len(order) != 2 || order[0] != 1 || order[1] != 2 {
			t.Fatalf("trial %d: drain order %v, want [1 2]", trial, order)
		}
	}
}

// TestGroupParallelismSmoke runs a trace workload at NumCPU shards under
// the race detector's eye (go test -race in CI) to shake out data races
// in the mailbox/barrier machinery.
func TestGroupParallelismSmoke(t *testing.T) {
	shards := runtime.NumCPU()
	if shards < 2 {
		shards = 2
	}
	ref := newTraceSim(shards*2, 0, 2, 50)
	refFired := ref.run(MaxTime)
	got := newTraceSim(shards*2, shards, 2, 50)
	if f := got.run(MaxTime); f != refFired {
		t.Fatalf("NumCPU shards: fired %d, want %d", f, refFired)
	}
	sameTraces(t, ref.traces, got.traces, "NumCPU")
}
