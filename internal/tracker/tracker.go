// Package tracker implements the paper's instrumentation library (§4): a
// user-transparent monitor that write-protects a process's data memory,
// records the pages dirtied in each checkpoint timeslice (the Incremental
// Working Set), re-protects everything at every timeslice alarm, and
// derives the Incremental Bandwidth required to save those pages.
//
// Correspondence with the real library:
//
//   - LD_PRELOAD + MPI_Init interception   → Tracker.Start
//   - mprotect(PROT_READ) over data memory → mem.AddressSpace.ProtectAllData
//   - SIGSEGV handler marking dirty pages  → the mem.FaultHandler installed here
//   - setitimer alarm per timeslice        → des.Ticker
//   - mmap/munmap interception             → mem.MapHook (memory exclusion, §4.2)
//   - network receive interception         → mpi delivery hook + bounce buffer
//
// The tracker also carries the paper's intrusiveness model (§6.5): each
// write fault and each alarm re-protection pass accrues a virtual CPU cost,
// from which the slowdown the paper reports (<10% at a 1 s timeslice) is
// derived.
package tracker

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/ckptspec"
	"repro/internal/des"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/mpi"
)

// MB is the paper's megabyte (10^6 bytes), used for all reported sizes
// and bandwidths.
const MB = 1e6

// Options configures a Tracker.
type Options struct {
	// Timeslice is the checkpoint timeslice (required, > 0).
	Timeslice des.Time
	// FaultCost is the CPU cost charged per write fault (SIGSEGV
	// delivery, handler bookkeeping, mprotect of one page). The default
	// is 12 µs, calibrated so Sage-1000MB at a 1 s timeslice lands under
	// the paper's <10% slowdown (§6.5).
	FaultCost des.Time
	// ReprotectCostPerPage is the alarm-time cost per re-protected page.
	ReprotectCostPerPage des.Time
	// AlarmFixedCost is the fixed per-alarm cost (signal delivery,
	// bookkeeping, flushing the sample).
	AlarmFixedCost des.Time
	// OnSample, when set, observes each completed timeslice sample.
	OnSample func(Sample)
}

// withDefaults fills zero fields with calibrated defaults.
func (o Options) withDefaults() Options {
	if o.FaultCost == 0 {
		o.FaultCost = 12 * des.Microsecond
	}
	if o.ReprotectCostPerPage == 0 {
		o.ReprotectCostPerPage = 400 * des.Nanosecond
	}
	if o.AlarmFixedCost == 0 {
		o.AlarmFixedCost = 200 * des.Microsecond
	}
	return o
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

	dirty    map[*mem.Region]*bitset.Set
	excluded map[*mem.Region]bool // regions never protected (bounce buffers)

	// Single-entry fault cache: consecutive faults overwhelmingly hit the
	// same region (the sweep walks one arena), so the per-fault map lookup
	// is skipped while the region repeats.
	lastFaultR  *mem.Region
	lastFaultRS *bitset.Set

	ticker      *des.Ticker
	prevFault   mem.FaultHandler
	prevMap     mem.MapHook
	prevDeliver func(uint64, des.Time)
	rank        *mpi.Rank
	running     bool

	sliceStart    des.Time
	sliceFaults   uint64
	sliceRecv     uint64
	sliceExcluded uint64
	sliceOverhead des.Time

	samples       []Sample
	sampleCount   int
	totalOverhead des.Time
	totalFaults   uint64
	startAt       des.Time
}

// New creates a tracker for the given address space. Call Start to begin
// monitoring (the analogue of the library's MPI_Init interception).
func New(eng *des.Engine, space *mem.AddressSpace, opts Options) (*Tracker, error) {
	if opts.Timeslice <= 0 {
		return nil, fmt.Errorf("tracker: timeslice must be positive, got %v", opts.Timeslice)
	}
	return &Tracker{
		eng:      eng,
		space:    space,
		opts:     opts.withDefaults(),
		dirty:    make(map[*mem.Region]*bitset.Set),
		excluded: make(map[*mem.Region]bool),
	}, nil
}

// Exclude marks a region as never write-protected and never counted in
// the IWS. The MPI bounce buffer must be excluded: the paper's library
// keeps its network landing zone writable so the NIC can deposit messages
// (§4.2). Call before Start.
func (t *Tracker) Exclude(r *mem.Region) {
	if r != nil {
		t.excluded[r] = true
	}
}

// ApplySpec excludes every binding the spec classifies as recomputable
// — the regions the ckptset analysis proved are never read across an
// iteration boundary — and returns those bindings. The measured IWS
// then covers only the must-checkpoint set. Bindings absent from the
// spec stay protected; re-applying a spec is idempotent (Exclude of an
// already-excluded region is a no-op).
func (t *Tracker) ApplySpec(spec *ckptspec.Spec, bindings []ckptspec.Binding) []ckptspec.Binding {
	if spec == nil {
		return nil
	}
	ex := spec.Recomputable(bindings)
	for _, b := range ex {
		t.Exclude(b.Region)
	}
	return ex
}

// AttachRank subscribes the tracker to an MPI rank's payload deliveries
// for the data-received series (Fig 1b), and excludes the rank's bounce
// buffer when present. Call before Start.
func (t *Tracker) AttachRank(w *mpi.World, rankID int) {
	r := w.Rank(rankID)
	t.rank = r
	t.Exclude(w.BounceRegion(rankID))
	t.prevDeliver = r.SetDeliveryHook(func(b uint64, _ des.Time) {
		t.sliceRecv += b
	})
}

// Start write-protects all data memory, installs the fault and map hooks,
// and arms the timeslice alarm.
func (t *Tracker) Start() {
	if t.running {
		panic("tracker: already started")
	}
	t.running = true
	t.startAt = t.eng.Now()
	t.sliceStart = t.eng.Now()
	t.prevFault = t.space.SetFaultHandler(t.onFault)
	t.prevMap = t.space.SetMapHook(t.onMap)
	t.protectAll()
	t.ticker = t.eng.NewTicker(t.opts.Timeslice, t.onAlarm)
}

// Stop cancels the alarm, removes the hooks and unprotects all memory.
// The partial final timeslice is discarded, matching the paper's per-
// timeslice reporting.
func (t *Tracker) Stop() {
	if !t.running {
		return
	}
	t.running = false
	t.ticker.Stop()
	t.space.SetFaultHandler(t.prevFault)
	t.space.SetMapHook(t.prevMap)
	if t.rank != nil {
		t.rank.SetDeliveryHook(t.prevDeliver)
	}
	t.space.UnprotectAllData()
}

// protectAll write-protects every checkpointable region except exclusions,
// charging the re-protection cost, and returns the pages protected.
func (t *Tracker) protectAll() uint64 {
	var pages uint64
	for _, r := range t.space.Regions() {
		if !r.Kind().Checkpointable() || t.excluded[r] {
			continue
		}
		r.ProtectAll()
		pages += r.Pages()
	}
	cost := t.opts.AlarmFixedCost + des.Time(pages)*t.opts.ReprotectCostPerPage
	t.sliceOverhead += cost
	t.totalOverhead += cost
	return pages
}

// onFault is the SIGSEGV-handler analogue: mark the page dirty, unprotect
// it so subsequent writes in this timeslice proceed at full speed, and
// charge the fault cost. A previously installed handler (e.g. a
// checkpointer's) is chained afterwards so mechanisms can stack.
func (t *Tracker) onFault(f mem.Fault) {
	rs := t.lastFaultRS
	if f.Region != t.lastFaultR {
		rs = t.dirty[f.Region]
		if rs == nil {
			rs = &bitset.Set{}
			t.dirty[f.Region] = rs
		}
		t.lastFaultR, t.lastFaultRS = f.Region, rs
	}
	rs.Add(f.Region.PageIndex(f.Page))
	f.Region.SetProtected(f.Page, false)
	t.sliceFaults++
	t.totalFaults++
	t.sliceOverhead += t.opts.FaultCost
	t.totalOverhead += t.opts.FaultCost
	if t.prevFault != nil {
		t.prevFault(f)
	}
}

// onMap tracks region lifetime, mirroring the library's mmap/munmap
// interception (§4.1). A newly mapped region is write-protected
// immediately so its initialization writes are observed; dirty pages of an
// unmapped region are counted as excluded and dropped — they will never be
// needed again, the memory-exclusion optimisation of §4.2.
func (t *Tracker) onMap(r *mem.Region, mapped bool) {
	if mapped {
		if t.running && r.Kind().Checkpointable() && !t.excluded[r] {
			r.ProtectAll()
			cost := des.Time(r.Pages()) * t.opts.ReprotectCostPerPage
			t.sliceOverhead += cost
			t.totalOverhead += cost
		}
		if t.prevMap != nil {
			t.prevMap(r, mapped)
		}
		return // dirty state is created lazily on first fault
	}
	if rs, ok := t.dirty[r]; ok {
		t.sliceExcluded += rs.CountBelow(r.Pages()) * t.space.PageSize()
		delete(t.dirty, r)
	}
	if r == t.lastFaultR {
		t.lastFaultR, t.lastFaultRS = nil, nil
	}
	delete(t.excluded, r)
	if t.prevMap != nil {
		t.prevMap(r, mapped)
	}
}

// onAlarm is the timeslice boundary: snapshot the IWS, emit the sample,
// reset dirty state and re-protect everything.
func (t *Tracker) onAlarm(at des.Time) {
	ps := t.space.PageSize()
	var iwsPages uint64
	for r, rs := range t.dirty {
		if r.Dead() {
			delete(t.dirty, r) // defensive; onMap normally handles this
			continue
		}
		// Only pages within the region's *current* size count: a heap
		// that shrank since the writes leaves its tail excluded.
		iwsPages += rs.CountBelow(r.Pages())
		rs.Clear()
	}
	s := Sample{
		Index:          t.sampleCount,
		Start:          t.sliceStart,
		End:            at,
		IWSPages:       iwsPages,
		IWSBytes:       iwsPages * ps,
		ExcludedBytes:  t.sliceExcluded,
		FootprintBytes: t.space.Footprint(),
		RecvBytes:      t.sliceRecv,
		Faults:         t.sliceFaults,

		SilentDirtyBytes: t.space.SilentDirtyBytes(),
	}
	t.sampleCount++
	t.sliceStart = at
	t.sliceFaults = 0
	t.sliceRecv = 0
	t.sliceExcluded = 0
	t.protectAll()
	s.Overhead = t.sliceOverhead
	t.sliceOverhead = 0
	t.samples = append(t.samples, s)
	if t.opts.OnSample != nil {
		t.opts.OnSample(s)
	}
}

// Samples returns the retained samples.
func (t *Tracker) Samples() []Sample { return t.samples }

// TotalFaults returns the number of write faults taken since Start.
func (t *Tracker) TotalFaults() uint64 { return t.totalFaults }

// TotalOverhead returns the accumulated instrumentation CPU time.
func (t *Tracker) TotalOverhead() des.Time { return t.totalOverhead }

// Slowdown returns the modelled relative slowdown of the application due
// to instrumentation — overhead time divided by monitored virtual time —
// the quantity the paper bounds below 10% for a 1 s timeslice (§6.5).
func (t *Tracker) Slowdown() float64 {
	elapsed := t.eng.Now() - t.startAt
	if elapsed <= 0 {
		return 0
	}
	return t.totalOverhead.Seconds() / elapsed.Seconds()
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
