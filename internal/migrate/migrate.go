// Package migrate implements iterative pre-copy live migration on the
// dirty-page-tracking substrate — the second classic consumer of
// mprotect-based write tracking (after incremental checkpointing), and
// the mechanism behind process migration systems like the CoCheck work
// the paper surveys (§7).
//
// Migration proceeds in rounds while the application keeps running:
// round 0 transfers the whole footprint; each subsequent round transfers
// the pages dirtied during the previous round's transfer window. When
// the delta stops shrinking — the application's write rate has caught up
// with the link — the application is paused for a final stop-and-copy of
// the residual dirty set. The downtime is therefore the residual set
// size over the link bandwidth: exactly the quantity the paper's IWS/IB
// analysis lets one predict, and exactly why migrating during a quiet
// communication window beats migrating mid-burst (§6.2 again).
//
// With backed address spaces the destination receives real page
// contents, and the test suite asserts the destination is bit-identical
// to the source as of the final stop-and-copy, under concurrent writes. Phantom spaces migrate metadata only (for full-scale volume
// experiments).
package migrate

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/mem"
	"repro/internal/storage"
)

// The migration policy the paper's full-scale runs use. A round's dirty
// set of at most stopPages pages (4 MB at 16 KB pages) triggers the final
// pause; maxRounds bounds the pre-copy phase, and reaching it forces the
// stop-and-copy regardless of convergence. Pages move over QsNet II
// (storage.QsNetSink).
const (
	maxRounds = 12
	stopPages = 256
)

// RoundStat describes one pre-copy round.
type RoundStat struct {
	Round    int
	Pages    uint64
	Bytes    uint64
	Duration des.Time
}

// Result summarises a completed migration.
type Result struct {
	Rounds []RoundStat
	// DowntimePages and Downtime describe the final stop-and-copy.
	DowntimePages uint64
	Downtime      des.Time
	// TotalBytes includes all rounds plus the final copy.
	TotalBytes uint64
	// Converged reports whether the delta shrank to stopPages (false
	// when the round bound or a growing delta forced the pause).
	Converged bool
	// CompletedAt is the virtual time the destination became live.
	CompletedAt des.Time
}

// Migrator transfers one address space to a destination while the source
// keeps running.
type Migrator struct {
	eng *des.Engine
	src *mem.AddressSpace
	dst *mem.AddressSpace

	// The policy: storage.QsNetSink, maxRounds and stopPages. Tests of
	// this package slow the link and lower the bounds to drive many
	// rounds through a few backed pages.
	link      storage.Model
	maxRounds int
	stopPages uint64

	// log holds the pages written since the last round; its map observer
	// keeps the destination's layout in step with the source's.
	log    *mem.DirtyLog
	res    Result
	err    error // first failure mirroring a source map event
	onDone func(Result, error)
}

// New prepares a migration from src into dst. dst must be an empty
// address space with the same page size and backing mode; Run replicates
// the source's region layout there and keeps it in step from then on.
func New(eng *des.Engine, src, dst *mem.AddressSpace) (*Migrator, error) {
	if src.PageSize() != dst.PageSize() {
		return nil, fmt.Errorf("migrate: page size mismatch %d vs %d", src.PageSize(), dst.PageSize())
	}
	if src.Phantom() != dst.Phantom() {
		return nil, fmt.Errorf("migrate: backing mode mismatch")
	}
	for _, r := range dst.Regions() {
		if r.Kind().Checkpointable() {
			return nil, fmt.Errorf("migrate: destination already has a %v region", r.Kind())
		}
	}
	m := &Migrator{
		eng: eng, src: src, dst: dst,
		link: storage.QsNetSink(), maxRounds: maxRounds, stopPages: stopPages,
		log: mem.NewDirtyLog(src),
	}
	m.log.OnMap = m.onMap
	return m, nil
}

// Exclude skips a region (transport bounce buffers).
func (m *Migrator) Exclude(r *mem.Region) { m.log.Exclude(r) }

// Run starts the migration; onDone fires at the virtual time the
// destination is complete and consistent.
func (m *Migrator) Run(onDone func(Result, error)) error {
	if m.log.IsOpen() {
		return fmt.Errorf("migrate: already running")
	}
	m.onDone = onDone
	// Round 0: replicate the source layout at the destination and copy
	// the whole footprint. Contents are read now; anything overwritten
	// later re-enters via the dirty rounds, tracked from here on.
	for _, r := range m.src.Regions() {
		if !m.log.Watches(r) {
			continue
		}
		if _, err := m.dst.MapAt(r.Start(), r.Size(), r.Kind()); err != nil {
			return fmt.Errorf("migrate: replicate region: %w", err)
		}
		for idx := uint64(0); idx < r.Pages(); idx++ {
			m.copyPage(r, idx)
		}
	}
	m.round(0, m.log.Open())
	return nil
}

// onMap replays a source map event at the destination: an arena the
// application maps during pre-copy must exist there before its pages
// arrive, and one it unmaps must not survive the cutover. (A brk move
// on an existing heap raises no event in mem, so it is not followed.)
func (m *Migrator) onMap(r *mem.Region, mapped bool, _ uint64) {
	if !m.log.Watches(r) {
		return
	}
	var err error
	if mapped {
		_, err = m.dst.MapAt(r.Start(), r.Size(), r.Kind())
	} else {
		err = m.dst.Munmap(m.dst.Find(r.Start()))
	}
	if err != nil {
		m.fail(fmt.Errorf("migrate: replay source map event: %w", err))
	}
}

// fail keeps the first error for onDone; the rounds run on regardless.
func (m *Migrator) fail(err error) {
	if m.err == nil {
		m.err = err
	}
}

// copyPage transfers one page's current content to the destination.
func (m *Migrator) copyPage(r *mem.Region, idx uint64) {
	if m.src.Phantom() {
		return // metadata-only migration
	}
	pd, addr := r.PeekPage(idx), r.PageAddr(idx)
	if pd == nil {
		return // never written: zero at the destination too
	}
	if dr := m.dst.Find(addr); dr != nil {
		dr.LoadPage(dr.PageIndex(addr), pd)
	} else {
		m.fail(fmt.Errorf("migrate: page %#x has no region at the destination", addr))
	}
}

// snapshotDirty copies the current dirty pages to the destination, in
// address order, and returns the count, resetting the dirty state and
// re-protecting.
func (m *Migrator) snapshotDirty() uint64 {
	var pages uint64
	for _, r := range m.src.Regions() {
		rs := m.log.Pages(r)
		if rs == nil {
			continue
		}
		limit := r.Pages()
		for idx, ok := rs.NextSet(0); ok && idx < limit; idx, ok = rs.NextSet(idx + 1) {
			m.copyPage(r, idx)
			pages++
		}
	}
	m.log.Reset()
	return pages
}

// round accounts one transfer window of the given size and schedules the
// next step.
func (m *Migrator) round(n int, pages uint64) {
	bytes := pages * m.src.PageSize()
	dur := m.link.WriteTime(bytes)
	m.res.Rounds = append(m.res.Rounds, RoundStat{Round: n, Pages: pages, Bytes: bytes, Duration: dur})
	m.res.TotalBytes += bytes
	m.eng.After(dur, func() { m.nextRound(n) })
}

// nextRound fires when round n's transfer window closes: decide whether
// to pre-copy again or pause for the final copy.
func (m *Migrator) nextRound(n int) {
	pending := m.log.Count()
	prev := m.res.Rounds[len(m.res.Rounds)-1].Pages
	converging := pending < prev
	if pending <= m.stopPages || n+1 >= m.maxRounds || !converging {
		// Final stop-and-copy: the copy is atomic in virtual time, so
		// the destination equals the source as of this instant; the
		// downtime is its transfer cost.
		pages := m.snapshotDirty()
		m.res.DowntimePages = pages
		m.res.Downtime = m.link.WriteTime(pages * m.src.PageSize())
		m.res.TotalBytes += pages * m.src.PageSize()
		m.res.Converged = pending <= m.stopPages
		m.eng.After(m.res.Downtime, m.finish)
		return
	}
	// Another pre-copy round.
	pages := m.snapshotDirty()
	m.round(n+1, pages)
}

func (m *Migrator) finish() {
	m.log.Close()
	m.res.CompletedAt = m.eng.Now()
	if m.onDone != nil {
		m.onDone(m.res, m.err)
	}
}
