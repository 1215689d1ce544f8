// Package tracker implements the paper's instrumentation library (§4): a
// user-transparent monitor that write-protects a process's data memory,
// records the pages dirtied in each checkpoint timeslice (the Incremental
// Working Set), re-protects everything at every timeslice alarm, and
// derives the Incremental Bandwidth required to save those pages.
//
// Correspondence with the real library:
//
//   - LD_PRELOAD + MPI_Init interception   → Tracker.Start
//   - mprotect(PROT_READ) over data memory → mem.DirtyLog.Open / Reset
//   - SIGSEGV handler marking dirty pages  → mem.DirtyLog's fault body
//   - setitimer alarm per timeslice        → des.Ticker
//   - mmap/munmap interception             → mem.DirtyLog.OnMap (memory exclusion, §4.2)
//   - network receive interception         → mpi delivery hook + bounce buffer
//
// The tracker also carries the paper's intrusiveness model (§6.5): each
// write fault and each alarm re-protection pass accrues a virtual CPU cost,
// from which the slowdown the paper reports (<10% at a 1 s timeslice) is
// derived.
package tracker

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/mpi"
)

// MB is the paper's megabyte (10^6 bytes), used for all reported sizes
// and bandwidths.
const MB = 1e6

// The intrusiveness model's calibrated costs (§6.5). faultCost is the
// CPU cost of one write fault (SIGSEGV delivery, handler bookkeeping,
// mprotect of one page), calibrated so Sage-1000MB at a 1 s timeslice
// lands under the paper's <10% slowdown; reprotectCostPerPage is the
// alarm-time cost per re-protected page; alarmFixedCost is the fixed
// per-alarm cost (signal delivery, bookkeeping, flushing the sample).
const (
	faultCost            = 12 * des.Microsecond
	reprotectCostPerPage = 400 * des.Nanosecond
	alarmFixedCost       = 200 * des.Microsecond
)

// Options configures a Tracker.
type Options struct {
	// Timeslice is the checkpoint timeslice (required, > 0).
	Timeslice des.Time
	// OnSample, when set, observes each completed timeslice sample.
	OnSample func(Sample)
}

// Sample is the measurement for one completed timeslice.
type Sample struct {
	// Index is the zero-based timeslice number.
	Index int
	// Start and End delimit the timeslice in virtual time.
	Start, End des.Time
	// IWSPages and IWSBytes give the Incremental Working Set: pages
	// written during the slice that are still mapped at the alarm.
	IWSPages uint64
	IWSBytes uint64
	// ExcludedBytes counts dirty pages that were unmapped before the
	// alarm and therefore dropped (memory exclusion, §4.2).
	ExcludedBytes uint64
	// FootprintBytes is the mapped data-memory size at the alarm.
	FootprintBytes uint64
	// RecvBytes is the message payload delivered during the slice
	// (Fig 1b's "data received").
	RecvBytes uint64
	// Faults is the number of write faults taken during the slice.
	Faults uint64
	// SilentDirtyBytes is the ground-truth IWS under-count at the
	// alarm: bytes of pages a Direct-mode NIC wrote while protected,
	// which the fault-driven IWS above therefore misses (§4.2).
	SilentDirtyBytes uint64
	// Overhead is the instrumentation CPU time accrued during the slice
	// (fault handling plus the alarm's re-protection pass).
	Overhead des.Time
}

// IBytesPerSec returns the sample's Incremental Bandwidth in bytes per
// virtual second.
func (s Sample) IBytesPerSec() float64 {
	dt := (s.End - s.Start).Seconds()
	if dt <= 0 {
		return 0
	}
	return float64(s.IWSBytes) / dt
}

// Tracker monitors one process (one address space / one MPI rank).
type Tracker struct {
	eng   *des.Engine
	space *mem.AddressSpace
	opts  Options

	// log is the protect → fault → dirty set → re-protect loop; the
	// tracker adds the alarm, the cost model and the samples.
	log *mem.DirtyLog

	ticker      *des.Ticker
	prevDeliver func(uint64, des.Time)
	rank        *mpi.Rank

	// Per-slice state. The log counts faults and TotalOverhead prices
	// them, so a slice keeps both totals as they stood when it began.
	sliceStart     des.Time
	sliceFaults0   uint64
	sliceOverhead0 des.Time
	sliceRecv      uint64
	sliceExcluded  uint64

	samples     []Sample
	sampleCount int
	protectCost des.Time // every protection pass so far
	startAt     des.Time
}

// New creates a tracker for the given address space. Call Start to begin
// monitoring (the analogue of the library's MPI_Init interception).
func New(eng *des.Engine, space *mem.AddressSpace, opts Options) (*Tracker, error) {
	if opts.Timeslice <= 0 {
		return nil, fmt.Errorf("tracker: timeslice must be positive, got %v", opts.Timeslice)
	}
	t := &Tracker{eng: eng, space: space, opts: opts, log: mem.NewDirtyLog(space)}
	t.log.OnMap = t.onMap
	return t, nil
}

// AttachRank subscribes the tracker to an MPI rank's payload deliveries
// for the data-received series (Fig 1b). The rank's bounce arena needs
// no call: its kind keeps it out of every dirty log. Call before Start.
func (t *Tracker) AttachRank(w *mpi.World, rankID int) {
	r := w.Rank(rankID)
	t.rank = r
	t.prevDeliver = r.SetDeliveryHook(func(b uint64, _ des.Time) {
		t.sliceRecv += b
	})
}

// Start opens the tracker's dirty log, which write-protects all data
// memory, and arms the timeslice alarm.
func (t *Tracker) Start() {
	if t.log.IsOpen() {
		panic("tracker: already started")
	}
	t.startAt = t.eng.Now()
	t.sliceStart = t.eng.Now()
	t.chargeProtect(alarmFixedCost, t.log.Open())
	t.ticker = t.eng.NewTicker(t.opts.Timeslice, t.onAlarm)
}

// Stop cancels the alarm and closes the dirty log, which unprotects all
// memory.
// The partial final timeslice is discarded, matching the paper's per-
// timeslice reporting.
func (t *Tracker) Stop() {
	if !t.log.IsOpen() {
		return
	}
	t.ticker.Stop()
	if t.rank != nil {
		t.rank.SetDeliveryHook(t.prevDeliver)
	}
	t.log.Close()
}

// chargeProtect accrues the cost of one protection pass: a fixed part
// (the alarm's signal delivery and bookkeeping; zero for a region mapped
// mid-slice) plus the per-page mprotect cost.
func (t *Tracker) chargeProtect(fixed des.Time, pages uint64) {
	t.protectCost += fixed + des.Time(pages)*reprotectCostPerPage
}

// onMap prices region lifetime (§4.1): a newly mapped region was just
// write-protected so its initialization writes are observed; the dirty
// pages of an unmapped region are counted as excluded — they will never
// be needed again, the memory-exclusion optimisation of §4.2.
func (t *Tracker) onMap(_ *mem.Region, mapped bool, pages uint64) {
	if mapped {
		t.chargeProtect(0, pages)
	} else {
		t.sliceExcluded += pages * t.space.PageSize()
	}
}

// onAlarm is the timeslice boundary: snapshot the IWS, emit the sample,
// reset dirty state and re-protect everything.
func (t *Tracker) onAlarm(at des.Time) {
	iwsPages := t.log.Count()
	faults := t.log.Faults()
	s := Sample{
		Index:          t.sampleCount,
		Start:          t.sliceStart,
		End:            at,
		IWSPages:       iwsPages,
		IWSBytes:       iwsPages * t.space.PageSize(),
		ExcludedBytes:  t.sliceExcluded,
		FootprintBytes: t.space.Footprint(),
		RecvBytes:      t.sliceRecv,
		Faults:         faults - t.sliceFaults0,

		SilentDirtyBytes: t.space.SilentDirtyBytes(),
	}
	t.sampleCount++
	t.sliceStart = at
	t.sliceFaults0 = faults
	t.sliceRecv = 0
	t.sliceExcluded = 0
	t.chargeProtect(alarmFixedCost, t.log.Reset())
	total := t.TotalOverhead()
	s.Overhead = total - t.sliceOverhead0
	t.sliceOverhead0 = total
	t.samples = append(t.samples, s)
	if t.opts.OnSample != nil {
		t.opts.OnSample(s)
	}
}

// Samples returns the retained samples.
func (t *Tracker) Samples() []Sample { return t.samples }

// TotalFaults returns the number of write faults taken since Start.
func (t *Tracker) TotalFaults() uint64 { return t.log.Faults() }

// TotalOverhead returns the accumulated instrumentation CPU time: every
// protection pass plus the per-fault cost (SIGSEGV delivery, handler
// bookkeeping, mprotect of one page).
func (t *Tracker) TotalOverhead() des.Time {
	return t.protectCost + des.Time(t.log.Faults())*faultCost
}

// Slowdown returns the modelled relative slowdown of the application due
// to instrumentation — overhead time divided by monitored virtual time —
// the quantity the paper bounds below 10% for a 1 s timeslice (§6.5).
func (t *Tracker) Slowdown() float64 {
	elapsed := t.eng.Now() - t.startAt
	if elapsed <= 0 {
		return 0
	}
	return t.TotalOverhead().Seconds() / elapsed.Seconds()
}

// IWSSeries returns the per-timeslice IWS sizes in MB (Fig 1a).
func (t *Tracker) IWSSeries() *metrics.Series {
	s := &metrics.Series{Name: "IWS (MB)"}
	for _, smp := range t.samples {
		s.Add(smp.End.Seconds(), float64(smp.IWSBytes)/MB)
	}
	return s
}

// IBSeries returns the per-timeslice Incremental Bandwidth in MB/s.
func (t *Tracker) IBSeries() *metrics.Series {
	s := &metrics.Series{Name: "IB (MB/s)"}
	for _, smp := range t.samples {
		s.Add(smp.End.Seconds(), smp.IBytesPerSec()/MB)
	}
	return s
}

// RecvSeries returns the per-timeslice received data in MB (Fig 1b).
func (t *Tracker) RecvSeries() *metrics.Series {
	s := &metrics.Series{Name: "Data received (MB)"}
	for _, smp := range t.samples {
		s.Add(smp.End.Seconds(), float64(smp.RecvBytes)/MB)
	}
	return s
}

// FootprintSeries returns the per-timeslice mapped footprint in MB.
func (t *Tracker) FootprintSeries() *metrics.Series {
	s := &metrics.Series{Name: "Footprint (MB)"}
	for _, smp := range t.samples {
		s.Add(smp.End.Seconds(), float64(smp.FootprintBytes)/MB)
	}
	return s
}
