package main

import (
	"encoding/json"
	"io"
	"time"
)

// span is one timed call across a layer boundary, recorded from the
// benchmark's side of the call. Spans of one operation share Op; Parent
// is the span that was open when this one began (-1 for a root).
type span struct {
	Name       string
	Start, End time.Duration // since the recorder's epoch
	Parent     int
	Op         int
	Bytes      int64
}

// recorder keeps spans in memory until the run ends. It is driven from
// the single benchmark goroutine only: every decorated call happens on
// the goroutine that drives the simulation, so the open-span stack needs
// no lock. Hooks that can fire on shard workers count with atomics and
// never open spans.
type recorder struct {
	epoch time.Time
	spans []span
	open  []int
	op    int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span under the innermost open one and returns its id.
func (r *recorder) begin(name string, bytes int64) int {
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Start: time.Since(r.epoch), Parent: parent, Op: r.op, Bytes: bytes})
	r.open = append(r.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (r *recorder) end(id int) {
	n := len(r.open)
	if n == 0 || r.open[n-1] != id {
		panic("benchmark: span closed out of order")
	}
	r.spans[id].End = time.Since(r.epoch)
	r.open = r.open[:n-1]
}

// spanTotals is the per-name aggregate of a recording.
type spanTotals struct {
	Count int
	Total time.Duration // sum of span durations
	Self  time.Duration // Total minus the part child spans cover
}

// totals aggregates by span name. A span's self time is its duration
// minus its direct children's durations; children are strictly nested
// (one goroutine), so they never overlap each other.
func (r *recorder) totals() map[string]spanTotals {
	child := make([]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]spanTotals)
	for i, s := range r.spans {
		t := out[s.Name]
		d := s.End - s.Start
		t.Count++
		t.Total += d
		t.Self += d - child[i]
		out[s.Name] = t
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format; chrome://tracing and Perfetto nest events of one tid by time.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the recording as a Chrome trace-event JSON array.
func (r *recorder) writeChrome(w io.Writer) error {
	events := make([]chromeEvent, 0, len(r.spans))
	for i, s := range r.spans {
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X", Pid: 1, Tid: 1,
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			Args: map[string]any{
				"id": i, "parent": s.Parent, "op": s.Op, "bytes": s.Bytes,
			},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(events)
}
