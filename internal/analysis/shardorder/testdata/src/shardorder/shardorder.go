// Package shardorder is golden-test input for the engine-scheduling
// map-order analyzer. The local Engine type stands in for the real
// event engine; the analyzer matches scheduling methods by receiver
// type name.
package shardorder

import "sort"

type Time int64

type Event struct{}

func (ev Event) Release()      {}
func (ev Event) Pending() bool { return false }

type Engine struct{}

func (e *Engine) Schedule(at Time, fn func()) Event                        { return Event{} }
func (e *Engine) After(d Time, fn func()) Event                            { return Event{} }
func (e *Engine) AfterLocal(d Time, fn func()) Event                       { return Event{} }
func (e *Engine) HoldSeriesLocal(first, step Time, n int, fn func()) Event { return Event{} }
func (e *Engine) PostTo(dst *Engine, at Time, fn func())                   {}
func (e *Engine) Release()                                                 {}
func (e *Engine) Now() Time                                                { return 0 }

// scheduleFromMap schedules straight out of a map range: the FIFO order
// of the resulting same-time events follows map iteration order.
func scheduleFromMap(e *Engine, due map[string]Time) {
	for _, at := range due {
		e.Schedule(at, func() {}) // want `Engine\.Schedule inside map iteration`
	}
}

// postFromMap leaks map order into cross-shard post sequence numbers.
func postFromMap(e *Engine, peers map[int]*Engine) {
	for _, p := range peers {
		e.PostTo(p, 10, func() {}) // want `Engine\.PostTo inside map iteration`
		e.AfterLocal(1, func() {}) // want `Engine\.AfterLocal inside map iteration`
	}
}

// holdFromMap reserves each hold's sequence block in map order.
func holdFromMap(e *Engine, due map[string]Time) {
	for _, at := range due {
		e.HoldSeriesLocal(at, 1, 4, func() {}) // want `Engine\.HoldSeriesLocal inside map iteration`
	}
}

// releaseFromMap runs held firings, and queues what is left of each hold,
// in map order.
func releaseFromMap(held map[int]Event) {
	for _, ev := range held {
		ev.Release() // want `Event\.Release inside map iteration`
	}
}

// eventReadsAreFine: only Release orders anything on an Event, and only
// Event's Release — an Engine method of that name is not flagged.
func eventReadsAreFine(e *Engine, held map[int]Event) bool {
	pending := false
	for _, ev := range held {
		pending = pending || ev.Pending()
		e.Release()
	}
	return pending
}

// sortedKeys is the canonical fix: impose an order before scheduling.
func sortedKeys(e *Engine, due map[string]Time) {
	keys := make([]string, 0, len(due))
	for k := range due {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		e.Schedule(due[k], func() {})
	}
}

// deferredCallback only builds a closure inside the range; the schedule
// call runs later, in event order, so it is fine.
func deferredCallback(e *Engine, due map[string]Time) func() {
	var fns []func()
	for _, at := range due {
		at := at
		fns = append(fns, func() { e.Schedule(at, func() {}) })
	}
	sort.Slice(fns, func(i, j int) bool { return i < j })
	if len(fns) == 0 {
		return nil
	}
	return fns[0]
}

// readsAreFine: non-scheduling Engine methods do not order events.
func readsAreFine(e *Engine, due map[string]Time) Time {
	var last Time
	for range due {
		last = e.Now()
	}
	return last
}

// otherReceiver: same method name on a non-Engine type is not flagged.
type Planner struct{}

func (p *Planner) Schedule(at Time, fn func()) {}

func otherReceiver(p *Planner, due map[string]Time) {
	for _, at := range due {
		p.Schedule(at, func() {})
	}
}

// suppressed: //lint:ignore works as for every other analyzer.
func suppressed(e *Engine, due map[string]Time) {
	for _, at := range due {
		//lint:ignore shardorder golden-test suppression exercise
		e.Schedule(at, func() {})
	}
}
