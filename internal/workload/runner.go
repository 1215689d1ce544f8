package workload

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/des"
	"repro/internal/mem"
	"repro/internal/mpi"
)

// Config parameterises a Runner.
type Config struct {
	// Ranks is the number of MPI processes; zero selects the spec's
	// reference count (64 in the paper).
	Ranks int
	// PageSize is the simulated page size; zero selects the Itanium II
	// default (16 KB).
	PageSize uint64
	// Seed drives per-rank jitter; runs with equal seeds are identical.
	Seed uint64
	// Shards is accepted and ignored: every run is on one engine.
	// Kept only for the frozen benchmark/ harness; ROADMAP item 8 deletes it.
	Shards int
}

// maxTick caps the sweep tick: every sub-burst is cut into 12 ticks,
// clamped to [100 µs, maxTick]. The initialization sweep ticks at maxTick.
const maxTick = 50 * des.Millisecond

func (c Config) withDefaults(spec Spec) Config {
	if c.Ranks == 0 {
		c.Ranks = spec.RefRanks
	}
	if c.PageSize == 0 {
		c.PageSize = mem.DefaultPageSize
	}
	return c
}

// Runner executes one application model across a set of ranks on a
// dedicated simulation engine.
type Runner struct {
	Spec Spec
	Cfg  Config

	// Eng is the engine every rank's events and every instrument run on.
	Eng    *des.Engine
	World  *mpi.World
	spaces []*mem.AddressSpace
	apps   []*app

	// Per-spec schedules every rank shares, computed once: the sub-burst
	// rate profile scaled to mean 1, and each send's offset from the start
	// of its iteration (non-decreasing; the ranks' send series borrow it).
	profile []float64
	sendAt  []des.Time

	iterZero des.Time // when rank 0 started iteration 0; 0 until known
}

// New builds the engine, address spaces, MPI world (on the paper's QsNet
// interconnect) and per-rank application instances, and schedules the
// data-initialization phase at virtual time zero. Attach trackers through
// Space(i).
func New(spec Spec, cfg Config) (*Runner, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults(spec)
	spaces := make([]*mem.AddressSpace, cfg.Ranks)
	for i := range spaces {
		// Phantom pages carry protection metadata only, which is all
		// the feasibility experiments need.
		spaces[i] = mem.NewAddressSpace(mem.Config{PageSize: cfg.PageSize, Phantom: true})
	}
	r := &Runner{Spec: spec, Cfg: cfg, spaces: spaces, Eng: des.NewEngine()}
	// One backing array for every rank's sub-burst records.
	bursts := make([]subBurst, cfg.Ranks*len(spec.RateProfile))
	world, err := mpi.NewWorld(r.Eng, mpi.QsNet(), mpi.Bounce, spaces)
	if err != nil {
		return nil, err
	}
	r.World = world
	for i := 0; i < cfg.Ranks; i++ {
		a, err := newApp(r, i, bursts[i*len(spec.RateProfile):(i+1)*len(spec.RateProfile)])
		if err != nil {
			return nil, err
		}
		r.apps = append(r.apps, a)
	}
	r.profile = normalize(spec.RateProfile)
	r.sendAt = sendOffsets(spec, cfg.Ranks, r.apps[0].nMsgs)
	// All ranks begin initialization at t=0.
	for _, a := range r.apps {
		a := a
		a.eng.Schedule(0, func() { a.startInit() })
	}
	return r, nil
}

// Space hands out rank i's address space: the door every tracker,
// checkpointer and migrator attaches through. Until a rank's space has been
// handed out, nothing can observe it mid-burst, so the runner holds each of
// its sweep sub-bursts as one event (des.Engine.HoldSeries), and the
// messages its left neighbour sends it as two (startIteration); handing
// it out releases them into ordinary series, so whatever
// attaches sees exactly the state, and from then on the writes, of a run
// that never held anything. Hand a space out before attaching anything to
// it; World.Rank(i).Space() is no substitute — a sweep tick panics if it
// finds that a never-handed-out space took a write fault.
func (r *Runner) Space(i int) *mem.AddressSpace {
	a := r.apps[i]
	a.handed = true
	a.release()
	return r.spaces[i]
}

// EngineFor returns r.Eng, whatever i.
// Kept only for the frozen benchmark/ harness; ROADMAP item 8 deletes it.
func (r *Runner) EngineFor(int) *des.Engine { return r.Eng }

// CriticalPathEvents returns r.Eng.Fired(): on one engine every event is
// on the critical path.
// Kept only for the frozen benchmark/ harness; ROADMAP item 8 deletes it.
func (r *Runner) CriticalPathEvents() uint64 { return r.Eng.Fired() }

// Run advances the simulation until the given virtual time. Held
// sub-bursts and messages are released when it returns, so between runs
// every rank — handed out or not — is in its tick-by-tick state.
func (r *Runner) Run(until des.Time) {
	r.Eng.Run(until)
	for _, a := range r.apps {
		a.release()
	}
}

// Now reports the run's current virtual time.
func (r *Runner) Now() des.Time { return r.Eng.Now() }

// IterZero reports when rank 0 entered its first iteration (after the
// data-initialization phase); zero until that has happened. Experiments
// exclude samples before this point, as the paper excludes the
// initialization write burst (§6.3).
func (r *Runner) IterZero() des.Time { return r.iterZero }

// RunToIterZero advances the simulation to the exact instant rank 0
// enters iteration 0 (IterZero), past the data-initialization phase.
func (r *Runner) RunToIterZero() error {
	r.Run(r.InitTail())
	for r.iterZero == 0 {
		if !r.Eng.Step() {
			return fmt.Errorf("workload: %s never reached iteration 0", r.Spec.Name)
		}
	}
	return nil
}

// initEstimate returns an analytic upper bound for the initialization
// phase duration, usable to size Run budgets before running.
func (r *Runner) initEstimate() des.Time {
	secs := r.Spec.PersistentMB() / r.Spec.InitRateMBs
	return des.FromSeconds(secs*1.05) + 100*des.Millisecond
}

// InitTail returns the virtual instant of the final initialization sweep
// tick — a strict floor for the init barrier's release (the release adds
// at least one network latency). RunToIterZero runs to this point in
// bulk, then Steps the remaining handful of events; the resulting event
// sequence is identical to stepping the whole way.
func (r *Runner) InitTail() des.Time {
	// Mirrors startInit's schedule: every rank sweeps the same total at
	// the same rate, one tick per maxTick starting at t=0.
	a := r.apps[0]
	rate := r.Spec.InitRateMBs * MB
	total := a.static.Size() + a.arena.Size()
	perTick := uint64(rate * maxTick.Seconds())
	if perTick == 0 || perTick >= total {
		return 0
	}
	steps := (total + perTick - 1) / perTick
	return des.Time(steps-1) * maxTick
}

// durationFor returns a virtual-time budget covering initialization plus
// the given number of iterations (plus slack for barrier drift).
func (r *Runner) durationFor(iterations int) des.Time {
	period := r.Spec.PeriodAt(r.Cfg.Ranks)
	return r.initEstimate() + des.Time(iterations)*period + period/4
}

// iterations reports how many full iterations rank 0 has completed.
func (r *Runner) iterations() int { return r.apps[0].iter }

// span is a byte extent the sweep walks through.
type span struct {
	base, size uint64
}

// app is one rank's application instance.
type app struct {
	r     *Runner
	id    int
	rank  *mpi.Rank
	eng   *des.Engine // the runner's engine
	space *mem.AddressSpace
	rng   *rand.Rand

	arena     *mem.Region // persistent arena
	static    *mem.Region // initialized-data segment
	stripBase uint64      // ghost-cell strip inside the arena
	sweepBase uint64      // working-set window base (before AltShift)

	wsBytes        uint64 // total working-set bytes per iteration
	persistentWS   uint64 // part of the working set in the persistent arena
	transientBytes uint64 // per-iteration transient arena (dynamic apps)
	stripBytes     uint64
	shiftBytes     uint64
	dwellBytes     uint64
	msgBytes       uint64
	nMsgs          int

	iter      int
	transient *mem.Region
	cursor    uint64  // sweep position within the iteration's spans
	spanBuf   [2]span // scratch backing for iterationSpans

	handed   bool       // Runner.Space has handed the space out
	bursts   []subBurst // one per rate-profile entry
	burstEnd des.Event  // the iteration's unmapTransient

	// A ring link into a rank nobody was handed is counted (startIteration):
	// booked is this rank's latest hold of its sends, deposits the latest
	// hold of the messages into it, recvsHeld tells postRecvs that this
	// iteration's receives are those deposits, and deposited counts them.
	booked, deposits des.Event
	recvsHeld        bool
	deposited        int
	slots            int // message slots in the ghost strip

	// The iteration's other callbacks, bound once (newApp) so that an
	// iteration allocates none: they read what they need from the app.
	mapTransient, unmapTransient, periodEnd, nextIteration, postRecvs, send func()
	// The counted link's two callbacks, bound on its first hold (holdLink),
	// so that a runner whose ranks are all handed out makes neither.
	book, deposit func(runs int)
}

// subBurst is one rate-profile entry of a rank's iterations: the sweep
// callbacks bound to it once (newApp) and the parameters they read, which
// each iteration sets for its own series.
type subBurst struct {
	perTick uint64 // bytes a tick sweeps, in iteration iter
	iter    int
	sweep   func(runs int) // a.sweep(perTick, iter, runs): a hold's callback
	tick    func()         // sweep(1): a handed rank's ordinary series
	held    des.Event      // the entry's latest hold
}

// release turns the rank's held sub-bursts, sends and incoming messages
// into ordinary series, running the firings already due
// (des.Event.Release).
func (a *app) release() {
	for i := range a.bursts {
		a.bursts[i].held.Release()
	}
	a.booked.Release()
	a.deposits.Release()
}

func newApp(r *Runner, id int, bursts []subBurst) (*app, error) {
	s := r.Spec
	a := &app{
		r:     r,
		id:    id,
		rank:  r.World.Rank(id),
		eng:   r.Eng,
		space: r.spaces[id],
		rng:   rand.New(rand.NewPCG(r.Cfg.Seed, uint64(id)+1)),
	}
	a.wsBytes = uint64(s.WorkingSetMB * MB)
	a.transientBytes = uint64(s.TransientMB() * MB)
	// The whole working set lives in persistent memory: the transient
	// arena is *additional* scratch space, swept while mapped but
	// dropped by memory exclusion when the allocator releases it. This
	// is what keeps the per-iteration overwrite fraction (Table 3, at
	// period-aligned alarms where the arena is already gone) at the
	// published ~53% while the footprint still oscillates (Table 2).
	a.persistentWS = a.wsBytes
	a.stripBytes = uint64(s.CommStripMB * MB)
	a.shiftBytes = uint64(s.AltShiftMB * MB)
	a.dwellBytes = uint64(s.DwellMB * MB)
	if s.CommMB > 0 {
		a.msgBytes = uint64(s.CommMsgKB * 1024)
		a.nMsgs = max(1, int(s.CommMB*MB/float64(a.msgBytes)+0.5))
	}

	// Address-space layout: a small static data segment, then one
	// persistent arena holding the working-set window (plus its
	// alternation shift), the ghost strip, and init-only remainder.
	a.static = a.space.MapData(uint64(s.StaticMB * MB))
	persistent := uint64(s.PersistentMB()*MB) - a.static.Size()
	// The 1 MB margin keeps strip writes (and the reduction scalar) away
	// from the arena end even when a message overhangs the strip.
	spikeSpan := a.persistentWS + uint64(s.SpikeExtraMB*MB)
	needed := max(a.persistentWS+a.shiftBytes, spikeSpan) + a.stripBytes + 1<<20
	if persistent < needed {
		return nil, fmt.Errorf("workload %s: persistent arena %d B cannot hold ws+shift+strip %d B", s.Name, persistent, needed)
	}
	arena, err := a.space.Mmap(persistent)
	if err != nil {
		return nil, err
	}
	a.arena = arena
	a.sweepBase = arena.Start()
	a.stripBase = arena.Start() + max(a.persistentWS+a.shiftBytes, spikeSpan)
	a.bind(bursts)
	return a, nil
}

// bind makes the callbacks every iteration schedules, once per rank.
func (a *app) bind(bursts []subBurst) {
	s := a.r.Spec
	a.bursts = bursts
	for i := range bursts {
		b := &bursts[i]
		b.sweep = func(runs int) { a.sweep(b.perTick, b.iter, runs) }
		b.tick = func() { b.sweep(1) }
	}
	// Dynamic applications map their transient arena for the duration
	// of the processing burst (§4.1: Fortran90 allocates per cycle).
	a.mapTransient = func() {
		t, err := a.space.Mmap(a.transientBytes)
		if err != nil {
			panic(fmt.Sprintf("workload %s: transient mmap: %v", s.Name, err))
		}
		a.transient = t
	}
	// Burst end: drop the transient arena (memory exclusion target).
	a.unmapTransient = func() {
		if a.transient != nil {
			if err := a.space.Munmap(a.transient); err != nil {
				panic(fmt.Sprintf("workload %s: transient munmap: %v", s.Name, err))
			}
			a.transient = nil
		}
	}
	// Global reduction at period end synchronises ranks and starts the
	// next iteration (the paper's codes end iterations with global
	// convergence checks).
	a.periodEnd = func() { a.rank.AllReduce(8, a.stripBase, a.nextIteration) }
	a.nextIteration = func() {
		a.iter++
		a.startIteration()
	}
	if a.nMsgs == 0 {
		return
	}
	// Post all receives at burst end; they match sends as they arrive.
	a.slots = max(1, int(a.stripBytes/a.msgBytes))
	a.postRecvs = func() {
		if a.recvsHeld {
			return
		}
		for j := 0; j < a.nMsgs; j++ {
			a.rank.Recv(mpi.AnySource, 0, a.slotAddr(j), nil)
		}
	}
	right := (a.id + 1) % a.r.Cfg.Ranks
	a.send = func() { a.rank.Send(right, 0, a.msgBytes, nil) }
}

// slotAddr is where an iteration's message j lands in the ghost strip.
func (a *app) slotAddr(j int) uint64 { return a.stripBase + uint64(j%a.slots)*a.msgBytes }

// startInit sweeps the whole persistent footprint once at the
// initialization rate (the initial IWS peak of Fig 1a), then joins a
// barrier and enters the iteration loop.
func (a *app) startInit() {
	rate := a.r.Spec.InitRateMBs * MB
	total := a.static.Size() + a.arena.Size()
	perTick := uint64(rate * maxTick.Seconds())
	if perTick == 0 {
		perTick = total
	}
	spans := []span{{a.static.Start(), a.static.Size()}, {a.arena.Start(), a.arena.Size()}}
	var pos uint64
	var step func()
	step = func() {
		n := min(perTick, total-pos)
		a.writeAcross(spans, pos, n, 1)
		pos += n
		if pos < total {
			a.eng.After(maxTick, step)
			return
		}
		a.rank.Barrier(func() {
			if a.id == 0 {
				a.r.iterZero = a.eng.Now()
			}
			a.startIteration()
		})
	}
	step()
}

// writeAcross writes n bytes starting at logical offset pos within the
// concatenation of the given spans, wrapping around, k times over: each
// piece is k back-to-back writes (mem.AddressSpace.RewriteRange).
func (a *app) writeAcross(spans []span, pos, n, k uint64) {
	var total uint64
	for _, sp := range spans {
		total += sp.size
	}
	if total == 0 || n == 0 {
		return
	}
	pos %= total
	for n > 0 {
		// Locate the span containing pos.
		rem := pos
		var sp span
		for _, cand := range spans {
			if rem < cand.size {
				sp = cand
				break
			}
			rem -= cand.size
		}
		w := min(n, sp.size-rem)
		if err := a.space.RewriteRange(sp.base+rem, w, k); err != nil {
			panic(fmt.Sprintf("workload %s rank %d: sweep write: %v", a.r.Spec.Name, a.id, err))
		}
		pos = (pos + w) % total
		n -= w
	}
}

// iterationSpans returns the sweep spans for the current iteration:
// the (possibly shifted or spike-extended) persistent window plus the
// transient arena. The returned slice aliases a per-app scratch buffer —
// it is valid until the next call, which is all the sweep ticks need, and
// keeps the per-tick hot path allocation-free.
func (a *app) iterationSpans() []span {
	spans := a.spanBuf[:0]
	if a.r.Spec.IsSpike(a.iter) {
		extended := a.persistentWS + uint64(a.r.Spec.SpikeExtraMB*MB)
		return append(spans, span{a.sweepBase, extended})
	}
	shift := uint64(0)
	if a.shiftBytes > 0 && a.iter%2 == 1 {
		shift = a.shiftBytes
	}
	spans = append(spans, span{a.sweepBase + shift, a.persistentWS})
	if a.transient != nil {
		spans = append(spans, span{a.transient.Start(), a.transient.Size()})
	}
	return spans
}

// startIteration runs one bulk-synchronous iteration: processing burst,
// communication burst, global reduction, repeat.
func (a *app) startIteration() {
	s := a.r.Spec
	eng := a.eng
	period := s.PeriodAt(a.r.Cfg.Ranks)
	burst := s.BurstDuration(a.r.Cfg.Ranks)
	iterStart := eng.Now()

	// Small per-rank jitter on the burst start keeps ranks from being
	// artificially phase-locked at event granularity.
	jitter := des.Time(a.rng.Int64N(int64(period/200) + 1))

	if s.Dynamic && a.transientBytes > 0 {
		eng.After(jitter, a.mapTransient)
	}

	// Processing burst: sub-bursts with profiled rates sweep the
	// working set. The cursor restarts each iteration so coverage is
	// deterministic.
	a.cursor = 0
	meanRate := s.SweepRateBps(a.r.Cfg.Ranks)
	if s.IsSpike(a.iter) {
		meanRate = s.SpikeSweeps * (s.WorkingSetMB + s.SpikeExtraMB) * MB / burst.Seconds()
	}
	profile := a.r.profile
	subDur := burst / des.Time(len(profile))
	tick := subDur / 12
	tick = max(min(tick, maxTick), 100*des.Microsecond)
	// A burst overrunning its period leaves last iteration's sub-bursts
	// running into this one (a series' last tick precedes its burst end).
	// Its holds become ordinary rather than being forgotten; they still
	// read the sub-burst entries, so this iteration's series get callbacks
	// of their own; and it holds nothing, since the spans would change
	// under a held sub-burst when last iteration's burst end unmaps the
	// transient arena (sweep).
	overrun := a.burstEnd.Pending()
	for bi, mult := range profile {
		rate := meanRate * mult
		perTick := uint64(rate * tick.Seconds())
		start := jitter + des.Time(bi)*subDur
		b := &a.bursts[bi]
		b.held.Release()
		sweep, doTick := b.sweep, b.tick
		if overrun {
			iter := a.iter
			sweep = func(runs int) { a.sweep(perTick, iter, runs) }
			doTick = func() { sweep(1) }
		} else {
			b.perTick, b.iter = perTick, a.iter
		}
		// The sub-burst's ticks, every tick from start+tick to
		// start+subDur, are one series: one queue entry, not one per tick.
		// On a rank nothing observes (Space) they are also one event, at
		// the last tick, until the space is handed out or the run returns.
		first, n := iterStart+start+tick, int(subDur/tick)
		if a.handed || overrun {
			eng.ScheduleSeries(first, tick, n, doTick)
		} else {
			b.held = eng.HoldSeries(first, tick, n, sweep)
		}
	}

	a.burstEnd = eng.After(jitter+burst, a.unmapTransient)

	// Communication burst: ring exchange with the right neighbour in
	// clumps spread across the window between burst end and period end.
	if a.nMsgs > 0 {
		// Receives are posted at burst end; the iteration's sends are one
		// series over the shared offsets, or two holds when nobody was
		// handed the receiver (holdLink).
		eng.Schedule(iterStart+burst, a.postRecvs)
		rcv := a.r.apps[(a.id+1)%a.r.Cfg.Ranks]
		if rcv.handed {
			rcv.recvsHeld = false
			eng.ScheduleSeriesAt(iterStart, a.r.sendAt, a.send)
		} else {
			a.holdLink(rcv, iterStart)
		}
	}

	eng.Schedule(iterStart+period, a.periodEnd)
}

// sweep is a sub-burst's tick body, for runs ticks at once; perTick and
// iter are its series' parameters. One tick writes perTick bytes at the
// cursor and moves it on, then — temporal locality — rewrites the whole
// trailing DwellMB window behind the cursor when that is smaller than the
// spans: re-touching already-dirty pages is nearly free in the simulation
// (a bitmap word scan), and in measurement terms the window contributes a
// constant DwellMB to every timeslice's IWS — the hot-inner-array
// behaviour.
//
// runs > 1 is a held sub-burst (des.Engine.HoldSeries) on a space never
// handed out, so never armed: its ticks' only effects are the cursor and
// the byte count. So it sweeps runs·perTick bytes in one pass — the same
// bytes and pages as runs ticks — and rewrites the last tick's dwell
// window runs times. That needs the spans its ticks read to be one set.
// They are: a burst maps its transient arena before its first tick and
// unmaps it after its last, an iteration holds nothing while the last
// one's burst runs on, and the next iteration releases the holds. A held
// sweep checks it.
func (a *app) sweep(perTick uint64, iter, runs int) {
	if runs > 1 && (iter != a.iter || (a.transient != nil) != (a.transientBytes > 0)) {
		panic(fmt.Sprintf("workload %s rank %d: held sub-burst of iteration %d ends in iteration %d with the transient arena mapped %v", a.r.Spec.Name, a.id, iter, a.iter, a.transient != nil))
	}
	spans := a.iterationSpans()
	n := uint64(runs) * perTick
	a.writeAcross(spans, a.cursor, n, 1)
	a.cursor += n
	if a.dwellBytes > 0 {
		var total uint64
		for _, sp := range spans {
			total += sp.size
		}
		if a.dwellBytes < total {
			a.writeAcross(spans, a.cursor+total-a.dwellBytes, a.dwellBytes, uint64(runs))
		}
	}
	if !a.handed && a.space.Faults() != 0 {
		panic(fmt.Sprintf("workload %s rank %d: write faults on a space never handed out by Runner.Space; its sweeps run held", a.r.Spec.Name, a.id))
	}
}

// holdLink counts this iteration's messages to rcv, a rank nobody was
// handed: the sends are a hold of this rank's bookings over the shared
// offsets, released at once if this rank was handed out, and the receives
// a hold of rcv's deposits over the same offsets, CountedDelay later.
//
// That is exact because nothing can tell a message from its counted ends.
// The runner's world loses nothing and takes the same time for every
// message of a size (mpi.World.CountedDelay), no send has a completion,
// no receive a continuation, and rcv's receives — the only ones its left
// neighbour's messages can match, taken in post order — are posted at
// burst end, before the first message lands (a valid spec's burst ends
// before its period, and sendOffsets starts the sends after the burst).
// So message k lands at iterStart+sendAt[k]+transfer into receive k and is
// copied out copyTime later to slotAddr(k), as the deposit does; rcv posts
// none of its own. The sender decides for its link, at iteration start: a
// rank handed out after its own startIteration at that instant
// (RunToIterZero stops right after rank 0's) gets the iteration's messages
// by the message path when its left neighbour starts after the hand-out.
func (a *app) holdLink(rcv *app, iterStart des.Time) {
	eng := a.eng
	if a.book == nil {
		a.book = func(runs int) { a.rank.CountSends(a.msgBytes, runs) }
	}
	if rcv.deposit == nil {
		rcv.deposit = rcv.depositHeld
	}
	a.booked.Release()
	a.booked = eng.HoldSeriesAt(iterStart, a.r.sendAt, a.book)
	if a.handed {
		a.booked.Release()
	}
	rcv.deposits.Release()
	rcv.deposits = eng.HoldSeriesAt(iterStart+a.r.World.CountedDelay(a.msgBytes), a.r.sendAt, rcv.deposit)
	rcv.recvsHeld = true
}

// depositHeld lands runs of the messages into this rank: the next ones in
// iteration order, each into its slot (slotAddr). runs > 1 is a held
// deposit, never released, of a whole iteration on a rank never handed
// out, so never armed: its only effects are counters and written bytes,
// which do not depend on the order of the writes, so each slot takes its
// share at once. A held deposit checks that.
func (a *app) depositHeld(runs int) {
	j := a.deposited % a.nMsgs
	if runs == 1 {
		a.rank.CountRecvs(a.slotAddr(j), a.msgBytes, 1)
		a.deposited++
		return
	}
	if a.handed || a.space.Faults() != 0 || j != 0 || runs != a.nMsgs {
		panic(fmt.Sprintf("workload %s rank %d: held deposit of %d messages from message %d on a space handed out %v with %d write faults", a.r.Spec.Name, a.id, runs, j, a.handed, a.space.Faults()))
	}
	for s := 0; s < min(a.slots, runs); s++ {
		k := runs / a.slots
		if s < runs%a.slots {
			k++
		}
		a.rank.CountRecvs(a.slotAddr(s), a.msgBytes, k)
	}
	a.deposited += runs
}

// sendOffsets returns when each of an iteration's nMsgs ring sends leaves,
// as offsets from the iteration start: clumps spread across the window
// between burst end and period end, in send order.
func sendOffsets(s Spec, ranks, nMsgs int) []des.Time {
	burst := s.BurstDuration(ranks)
	window := s.PeriodAt(ranks) - burst
	clumps := max(1, s.CommClumps)
	perClump := (nMsgs + clumps - 1) / clumps
	// Each clump is compressed into a short sub-window so received data
	// arrives in bursts (Fig 1b), not as a smear.
	clumpDur := des.Time(float64(window) * 0.05)
	at := make([]des.Time, 0, nMsgs)
	for c := 0; c < clumps && len(at) < nMsgs; c++ {
		clumpStart := burst + des.Time(float64(window)*(float64(c)+0.3)/float64(clumps))
		for k := 0; k < perClump && len(at) < nMsgs; k++ {
			at = append(at, clumpStart+des.Time(float64(clumpDur)*float64(k)/float64(perClump)))
		}
	}
	return at
}

// normalize scales profile entries to mean 1.
func normalize(profile []float64) []float64 {
	var sum float64
	for _, p := range profile {
		sum += p
	}
	mean := sum / float64(len(profile))
	out := make([]float64, len(profile))
	for i, p := range profile {
		out[i] = p / mean
	}
	return out
}
