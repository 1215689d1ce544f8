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
	// Net is the interconnect model; the zero value selects QsNet.
	Net mpi.Network
	// Seed drives per-rank jitter; runs with equal seeds are identical.
	Seed uint64
	// Shards is accepted and ignored: every run is on one engine.
	// Kept only for the frozen benchmark/ harness; ROADMAP item 3 deletes it.
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
	if c.Net == (mpi.Network{}) {
		c.Net = mpi.QsNet()
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

// New builds the engine, address spaces, MPI world and per-rank
// application instances, and schedules the data-initialization phase at
// virtual time zero. Attach trackers through Space(i).
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
	world, err := mpi.NewWorld(r.Eng, cfg.Net, mpi.Bounce, spaces)
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
// its sweep sub-bursts as one event (des.Engine.HoldSeries); handing
// it out releases them into ordinary tick-by-tick series, so whatever
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
// Kept only for the frozen benchmark/ harness; ROADMAP item 3 deletes it.
func (r *Runner) EngineFor(int) *des.Engine { return r.Eng }

// CriticalPathEvents returns r.Eng.Fired(): on one engine every event is
// on the critical path.
// Kept only for the frozen benchmark/ harness; ROADMAP item 3 deletes it.
func (r *Runner) CriticalPathEvents() uint64 { return r.Eng.Fired() }

// Run advances the simulation until the given virtual time. Held
// sub-bursts are released when it returns, so between runs every space —
// handed out or not — is in its tick-by-tick state.
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

// initEstimate returns an analytic upper bound for the initialization
// phase duration, usable to size Run budgets before running.
func (r *Runner) initEstimate() des.Time {
	secs := r.Spec.PersistentMB() / r.Spec.InitRateMBs
	return des.FromSeconds(secs*1.05) + 100*des.Millisecond
}

// InitTail returns the virtual instant of the final initialization sweep
// tick — a strict floor for the init barrier's release (the release adds
// at least one network latency). Callers seeking the exact first
// iteration boundary run to this point in bulk, then Step the remaining
// handful of events; the resulting event sequence is identical to
// stepping the whole way.
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

	// The iteration's other callbacks, bound once (newApp) so that an
	// iteration allocates none: they read what they need from the app.
	mapTransient, unmapTransient, periodEnd, nextIteration, postRecvs, send func()
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

// release turns the rank's held sub-bursts into ordinary series, running
// the ticks already due (des.Event.Release).
func (a *app) release() {
	for i := range a.bursts {
		a.bursts[i].held.Release()
	}
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
	slots := max(1, int(a.stripBytes/a.msgBytes))
	a.postRecvs = func() {
		for j := 0; j < a.nMsgs; j++ {
			dest := a.stripBase + uint64(j%slots)*a.msgBytes
			a.rank.Recv(mpi.AnySource, 0, dest, nil)
		}
	}
	right := (a.id + 1) % a.r.Cfg.Ranks
	a.send = func() { a.rank.Send(right, 0, a.msgBytes, nil) }
}

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
		// series over the shared offsets.
		eng.Schedule(iterStart+burst, a.postRecvs)
		eng.ScheduleSeriesAt(iterStart, a.r.sendAt, a.send)
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
