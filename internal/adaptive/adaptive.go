// Package adaptive implements the optimisation the paper proposes but
// stops short of building (§6.2, §8): "these codes typically alternate
// between processing and communication bursts that can automatically be
// identified at run time … this behavior can be exploited to implement
// efficient coordinated checkpoints."
//
// The Aligner watches the live IWS signal from a tracker and, when a
// checkpoint is due, defers the trigger until the application leaves its
// processing burst — firing in the quiet communication window where the
// pages just saved will not be immediately rewritten. A deferral cap
// bounds the drift so a misbehaving (never-quiet) application still
// checkpoints at close to the requested cadence.
//
// No application knowledge is needed: the alignment is derived purely
// from the page-protection signal the instrumentation already produces,
// preserving the paper's full-transparency requirement.
package adaptive

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/tracker"
)

// Options configures an Aligner.
type Options struct {
	// Interval is the desired mean checkpoint interval (required). It
	// is also the deferral cap: a trigger may slip up to one whole
	// cadence past its due time while waiting for a quiet window, which
	// lets the aligner ride out processing bursts longer than half an
	// interval (Sage's bursts are ~40% of a 145 s iteration).
	Interval des.Time
}

// quietFrac classifies a timeslice as quiet when its IWS is below this
// fraction of the recent peak.
const quietFrac = 0.3

// windowSlices is how many recent samples define the "recent peak".
const windowSlices = 64

// Stats counts the aligner's decisions.
type Stats struct {
	// Fired is the number of triggers issued.
	Fired int
	// FiredQuiet counts triggers that landed in a quiet slice;
	// FiredForced counts those released by the deferral cap.
	FiredQuiet, FiredForced int
	// TotalDefer is the cumulative time triggers slipped past due.
	TotalDefer des.Time
}

// Aligner defers periodic triggers into quiet IWS windows.
type Aligner struct {
	eng  *des.Engine
	opts Options
	fire func()

	ring     []float64 // recent IWS values (bytes)
	ringPos  int
	dueAt    des.Time
	armed    bool
	prevBusy bool
	stats    Stats
}

// New creates an aligner that calls fire for each (aligned) checkpoint
// trigger. Feed it samples from a tracker's OnSample hook, then Start it.
func New(eng *des.Engine, opts Options, fire func()) (*Aligner, error) {
	if opts.Interval <= 0 {
		return nil, fmt.Errorf("adaptive: interval must be positive")
	}
	if fire == nil {
		return nil, fmt.Errorf("adaptive: fire callback is required")
	}
	return &Aligner{eng: eng, opts: opts, fire: fire, ring: make([]float64, 0, windowSlices)}, nil
}

// Start arms the first due time one interval from now.
func (a *Aligner) Start() {
	a.armed = true
	a.dueAt = a.eng.Now() + a.opts.Interval
}

// Stats returns a copy of the decision counters.
func (a *Aligner) Stats() Stats { return a.stats }

// recentPeak returns the maximum IWS over the ring.
func (a *Aligner) recentPeak() float64 {
	var peak float64
	for _, v := range a.ring {
		if v > peak {
			peak = v
		}
	}
	return peak
}

// Feed consumes one tracker sample; wire it as tracker.Options.OnSample.
// Trigger decisions happen at sample boundaries — the same granularity
// the instrumentation already operates at.
func (a *Aligner) Feed(s tracker.Sample) {
	v := float64(s.IWSBytes)
	if len(a.ring) < cap(a.ring) {
		a.ring = append(a.ring, v)
	} else {
		a.ring[a.ringPos] = v
		a.ringPos = (a.ringPos + 1) % len(a.ring)
	}
	peak := a.recentPeak()
	quiet := peak == 0 || v < quietFrac*peak
	onset := quiet && a.prevBusy
	a.prevBusy = !quiet
	if !a.armed {
		return
	}
	now := a.eng.Now()
	switch {
	case now >= a.dueAt:
		// Due: fire when quiet, or when the deferral cap expires.
		if !quiet && now < a.dueAt+a.opts.Interval {
			return // still in a processing burst: keep deferring
		}
	case onset && now >= a.dueAt-a.opts.Interval/4:
		// A quiet window just opened within a quarter interval before
		// the due time: take it rather than risk the due instant
		// landing mid-burst. Steadily quiet signals never fire early,
		// so the mean cadence stays at Interval.
	default:
		return
	}
	forced := !quiet
	if forced {
		a.stats.FiredForced++
	} else {
		a.stats.FiredQuiet++
	}
	a.stats.Fired++
	if now > a.dueAt {
		a.stats.TotalDefer += now - a.dueAt
	}
	a.dueAt = now + a.opts.Interval
	a.fire()
}
