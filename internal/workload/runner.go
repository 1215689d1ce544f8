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
	// Kept only for the frozen benchmark/ harness; ROADMAP's "Benchmark v2" item deletes it.
	Shards int
}

// maxTick caps the sweep tick: every sub-burst is cut into 12 ticks,
// clamped to [100 µs, maxTick]. The initialization sweep ticks at maxTick.
const maxTick = 50 * des.Millisecond

// tickByTick is a test seam (export_test.go): a runner New builds while
// it is set makes every burst an ordinary series, tick by tick — the
// reference the held sweeps are checked against.
var tickByTick bool

// messageByMessage is the other test seam (export_test.go): a runner New
// builds while it is set sends every ring message through the message
// path — a send, a NIC landing and a copy end each, into receives the
// receiver posts at its burst end — the reference the counted links are
// checked against.
var messageByMessage bool

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
	// rate profile scaled to mean 1, each sweep tick's offset from the
	// start of its processing burst (subTicks to a sub-burst) and each
	// send's offset from the start of its iteration (both checked
	// non-decreasing once, here; the ranks' burst and link series borrow
	// them).
	profile  []float64
	tickAt   des.Offsets
	subTicks int
	tick     des.Time // the sweep tick
	sendAt   des.Offsets

	iterZero des.Time // when rank 0 started iteration 0; 0 until known

	// The ranks whose iteration ends at endAt, in the order they started
	// it, and the one event that ends them (endPeriod).
	ending     []*app
	endAt      des.Time
	endPeriods func()

	ticks    bool // tickByTick when New built the runner
	messages bool // messageByMessage when New built the runner
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
	r := &Runner{Spec: spec, Cfg: cfg, spaces: spaces, Eng: des.NewEngine(), ticks: tickByTick, messages: messageByMessage}
	// One backing array for every rank's sub-burst rates.
	perTick := make([]uint64, cfg.Ranks*len(spec.RateProfile))
	world, err := mpi.NewWorld(r.Eng, mpi.QsNet(), mpi.Bounce, spaces)
	if err != nil {
		return nil, err
	}
	r.World = world
	for i := 0; i < cfg.Ranks; i++ {
		a, err := newApp(r, i, perTick[i*len(spec.RateProfile):(i+1)*len(spec.RateProfile)])
		if err != nil {
			return nil, err
		}
		r.apps = append(r.apps, a)
	}
	r.profile = normalize(spec.RateProfile)
	tickAt, subTicks, tick := tickOffsets(spec, cfg.Ranks)
	r.tickAt, r.subTicks, r.tick = des.NewOffsets(tickAt), subTicks, tick
	r.sendAt = des.NewOffsets(sendOffsets(spec, cfg.Ranks, r.apps[0].nMsgs))
	// All ranks begin initialization at t=0, in rank order, from one
	// event: per-rank events would hold consecutive sequence numbers, so
	// nothing could run between them.
	r.Eng.Schedule(0, func() {
		for _, a := range r.apps {
			a.startInit()
		}
	})
	r.endPeriods = func() {
		for _, a := range r.ending {
			a.rank.AllReduce(8, a.stripBase, a.nextIteration)
		}
		clear(r.ending)
		r.ending = r.ending[:0]
	}
	return r, nil
}

// endPeriod queues a's period end, at which it joins the global
// reduction that synchronises the ranks and starts the next iteration
// (the paper's codes end iterations with global convergence checks).
// Every rank starts an iteration at the reduction's completion, so
// every rank's period ends at one instant: one event (endPeriods) makes
// their arrivals in the order they started. Per-rank events could be
// interleaved at that instant only by events of other ranks' iterations
// — ticks, a burst end, messages — none of which reads or changes what
// an arrival does on a world that loses nothing.
func (r *Runner) endPeriod(a *app, at des.Time) {
	if len(r.ending) == 0 {
		r.endAt = at
		r.Eng.Schedule(at, r.endPeriods)
	} else if at != r.endAt {
		panic(fmt.Sprintf("workload %s rank %d: period ends at %v, the other ranks' at %v", r.Spec.Name, a.id, at, r.endAt))
	}
	r.ending = append(r.ending, a)
}

// Space hands out rank i's address space: the door every tracker,
// checkpointer and migrator attaches through. Every rank's processing
// bursts run held (des.Engine.HoldSeriesAt): one event at the burst's
// last tick, standing for the ticks since anything last looked; so do
// the messages its left neighbour sends it, one event per iteration
// (holdLink). Handing a space out installs its settle hook
// (mem.AddressSpace.SetSettle), so whatever reads its dirty state,
// changes its protection or maps it first runs the ticks and deposits
// due so far, in closed form (des.Event.Settle, app.sweep,
// app.depositHeld): an observer sees exactly the state, and from then on
// the writes and deliveries, of a run that ticked and sent one by one.
// The rank's mpi counters are current between Runs and once anything
// has read its space. Hand a space out before attaching anything to it;
// World.Rank(i).Space() is no substitute — it has no hook, and a sweep
// panics if it finds that a never-handed-out space took a write fault.
func (r *Runner) Space(i int) *mem.AddressSpace {
	a := r.apps[i]
	if !a.handed {
		a.handed = true
		a.space.SetSettle(a.settle)
		a.settle()
	}
	return r.spaces[i]
}

// EngineFor returns r.Eng, whatever i.
// Kept only for the frozen benchmark/ harness; ROADMAP's "Benchmark v2" item deletes it.
func (r *Runner) EngineFor(int) *des.Engine { return r.Eng }

// CriticalPathEvents returns r.Eng.Fired(): on one engine every event is
// on the critical path.
// Kept only for the frozen benchmark/ harness; ROADMAP's "Benchmark v2" item deletes it.
func (r *Runner) CriticalPathEvents() uint64 { return r.Eng.Fired() }

// Run advances the simulation until the given virtual time. When it
// returns, every rank's held burst and held link ends are settled, so
// between runs every rank — handed out or not, read through Space,
// World.Rank(i).Space() or its mpi counters — is in its tick-by-tick,
// message-by-message state, and a run made in windows holds its bursts
// and links as one made at once does.
func (r *Runner) Run(until des.Time) {
	r.Eng.Run(until)
	for _, a := range r.apps {
		a.settle()
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

	handed   bool      // Runner.Space has handed the space out
	burst    procBurst // the iteration's processing burst, held
	burstEnd des.Time  // when the latest iteration's processing burst ends

	// Every ring link is counted (holdLink): booked is this rank's latest
	// hold of its sends, deposits the latest hold of the messages into it,
	// and deposited counts them.
	booked, deposits des.Event
	deposited        int
	slots            int // message slots in the ghost strip

	// The iteration's other callbacks, bound once (newApp) so that an
	// iteration allocates none: they read what they need from the app.
	mapTransient, unmapTransient, nextIteration func()
	// sweepHeld is the held burst's callback, a.sweepBurst(&a.burst, runs);
	// book and deposit are the counted link's, the sender's and the
	// receiver's end.
	sweepHeld, book, deposit func(runs int)
	// The message path's callbacks, bound only under the messageByMessage
	// seam.
	postRecvs, send func()
}

// procBurst is one iteration's processing burst: its sub-bursts' rates, the
// iteration, and how many of its ticks (Runner.tickAt) have run.
type procBurst struct {
	perTick []uint64 // bytes a tick of each sub-burst sweeps
	iter    int
	k       int
	held    des.Event // the burst's hold, while it is one
}

// settle runs what is due of the rank's holds (des.Event.Settle): the
// ticks of its burst, the deposits of the messages into it and the
// bookings of its own sends.
func (a *app) settle() {
	a.burst.held.Settle()
	a.deposits.Settle()
	a.booked.Settle()
}

func newApp(r *Runner, id int, perTick []uint64) (*app, error) {
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
	a.bind(perTick)
	return a, nil
}

// bind makes the callbacks every iteration schedules, once per rank.
func (a *app) bind(perTick []uint64) {
	s := a.r.Spec
	a.burst.perTick = perTick
	a.sweepHeld = func(runs int) { a.sweepBurst(&a.burst, runs) }
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
	a.nextIteration = func() {
		// A burst that overran its period is still held: it runs the
		// ticks due before now while iter and the cursor are still its
		// own, then goes on as an ordinary series (startIteration).
		a.burst.held.Release()
		a.iter++
		a.startIteration()
	}
	if a.nMsgs == 0 {
		return
	}
	a.slots = max(1, int(a.stripBytes/a.msgBytes))
	a.book = func(runs int) { a.rank.CountSends(a.msgBytes, runs) }
	a.deposit = a.depositHeld
	if !a.r.messages {
		return
	}
	// Post all receives at burst end; they match sends as they arrive.
	a.postRecvs = func() {
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
	// A burst overrunning its period leaves last iteration's ticks
	// running into this one (a tick precedes its burst end). Its hold
	// became ordinary rather than being forgotten (nextIteration); it
	// still reads a.burst, so this iteration's series gets a record and a
	// callback of its own; and it holds nothing, since the spans would
	// change under a held burst when last iteration's burst end unmaps
	// the transient arena (sweep). A runner ticking one by one
	// (tickByTick) makes its series the same way. The last burst ends
	// before now exactly when its end passed: a burst end is queued before
	// its iteration's collective, so at a tie it has come and gone.
	overrun := a.burstEnd > iterStart
	a.burstEnd = iterStart + jitter + burst
	b := &a.burst
	if overrun || a.r.ticks {
		b = &procBurst{perTick: make([]uint64, len(a.burst.perTick))}
	}
	b.iter, b.k = a.iter, 0
	for bi, mult := range a.r.profile {
		b.perTick[bi] = uint64(meanRate * mult * a.r.tick.Seconds())
	}
	// The burst's ticks, every sub-burst's from one tick past its start to
	// its end, are one series over the shared offsets: one queue entry,
	// not one per tick, and held, one event at the burst's last tick,
	// whose observers settle the ticks due whenever they look (Space).
	if b == &a.burst {
		b.held = eng.HoldSeriesAt(iterStart+jitter, a.r.tickAt, a.sweepHeld)
	} else {
		eng.ScheduleSeriesAt(iterStart+jitter, a.r.tickAt, func() { a.sweepBurst(b, 1) })
	}
	if s.Dynamic && a.transientBytes > 0 {
		eng.Schedule(a.burstEnd, a.unmapTransient)
	}

	// Communication burst: ring exchange with the right neighbour in
	// clumps spread across the window between burst end and period end,
	// counted (holdLink); the messageByMessage seam sends them as one
	// series over the shared offsets, into receives the receiver posts
	// at its burst end.
	if a.nMsgs > 0 {
		rcv := a.r.apps[(a.id+1)%a.r.Cfg.Ranks]
		if a.r.messages {
			eng.Schedule(iterStart+burst, rcv.postRecvs)
			eng.ScheduleSeriesAt(iterStart, a.r.sendAt, a.send)
		} else {
			a.holdLink(rcv, iterStart)
		}
	}

	a.r.endPeriod(a, iterStart+period)
}

// sweepBurst runs the next runs ticks of b, the processing burst of
// iteration b.iter: the ticks of each sub-burst they reach are one sweep
// at that sub-burst's rate.
func (a *app) sweepBurst(b *procBurst, runs int) {
	for runs > 0 {
		sub := b.k / a.r.subTicks
		m := min(runs, (sub+1)*a.r.subTicks-b.k)
		b.k += m
		runs -= m
		a.sweep(b.perTick[sub], b.iter, m)
	}
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
// runs > 1 is a held burst's node or a settle (des.Event.Settle), cut at
// sub-burst boundaries (sweepBurst):
// ticks nothing read between, whose writes are made in closed form, on a
// space that may be armed. Between two reads only which pages the ticks
// write matters, and how many bytes. So it makes the first tick as one,
// then the other runs-1: their runs-1 forward pieces in one pass, and the
// last one's dwell window runs-1 times (RewriteRange). That writes the
// same bytes as runs ticks and the same pages: every later tick's window
// ends at its own cursor and starts no earlier than the first tick's,
// so it lies inside the first tick's window and the forward pass; the
// union of the windows is the first window and the forward pass. That
// needs the spans its ticks read to be one set. They are: a burst maps
// its transient arena before its first tick and unmaps it after its last
// (Mmap and Munmap settle first), an iteration holds nothing while the
// last one's burst runs on, and the next iteration releases the hold. A
// held sweep checks it.
func (a *app) sweep(perTick uint64, iter, runs int) {
	if runs > 1 && (iter != a.iter || (a.transient != nil) != (a.transientBytes > 0)) {
		panic(fmt.Sprintf("workload %s rank %d: held sub-burst of iteration %d ends in iteration %d with the transient arena mapped %v", a.r.Spec.Name, a.id, iter, a.iter, a.transient != nil))
	}
	spans := a.iterationSpans()
	var total uint64
	for _, sp := range spans {
		total += sp.size
	}
	for _, k := range [2]uint64{1, uint64(runs) - 1} {
		if k == 0 {
			break
		}
		n := k * perTick
		a.writeAcross(spans, a.cursor, n, 1)
		a.cursor += n
		if a.dwellBytes > 0 && a.dwellBytes < total {
			a.writeAcross(spans, a.cursor+total-a.dwellBytes, a.dwellBytes, k)
		}
	}
	if !a.handed && a.space.Faults() != 0 {
		panic(fmt.Sprintf("workload %s rank %d: write faults on a space never handed out by Runner.Space; its sweeps run held", a.r.Spec.Name, a.id))
	}
}

// holdLink counts this iteration's messages to rcv: the sends are a hold
// of this rank's bookings over the shared offsets, and the receives a
// hold of rcv's deposits over the same offsets, CountedDelay later. Each
// is one event per iteration; an observer of either rank settles what is
// due whenever it reads the rank's space (Space), and Run settles both
// between windows.
//
// That is exact because nothing can tell a message from its counted ends.
// The runner's world loses nothing and takes the same time for every
// message of a size (mpi.World.CountedDelay), no send has a completion,
// no receive a continuation, and rcv's receives — the only ones its left
// neighbour's messages can match, taken in post order — would be posted
// at burst end, before the first message lands (a valid spec's burst ends
// before its period, and sendOffsets starts the sends after the burst).
// So message k lands at iterStart+sendAt[k]+transfer into receive k and is
// copied out copyTime later to slotAddr(k), as the deposit does. What an
// observer of rcv can see of that copy — its faults, its written bytes,
// its delivery-hook calls — is settled before the observer reads: the
// copies are CPU writes, whose faults do not depend on their order.
func (a *app) holdLink(rcv *app, iterStart des.Time) {
	eng := a.eng
	a.booked.Release()
	a.booked = eng.HoldSeriesAt(iterStart, a.r.sendAt, a.book)
	rcv.deposits.Release()
	rcv.deposits = eng.HoldSeriesAt(iterStart+a.r.World.CountedDelay(a.msgBytes), a.r.sendAt, rcv.deposit)
}

// depositHeld lands runs of the messages into this rank: the next ones in
// iteration order, each into its slot (slotAddr), as one counted receive
// into the ghost strip — one store per lap of the strip
// (mpi.Rank.CountRecvs). A run is a settle's or the hold's last event, and
// never leaves its iteration: a deposit hold is one iteration's messages.
func (a *app) depositHeld(runs int) {
	j := a.deposited % a.nMsgs
	if j+runs > a.nMsgs {
		panic(fmt.Sprintf("workload %s rank %d: held deposit of %d messages from message %d runs past the iteration's %d", a.r.Spec.Name, a.id, runs, j, a.nMsgs))
	}
	a.rank.CountRecvs(a.stripBase, a.msgBytes, a.slots, j%a.slots, runs)
	a.deposited += runs
}

// tickOffsets returns when each sweep tick of an iteration's processing
// burst runs, as offsets from the burst's start, how many ticks each
// sub-burst has, and the tick: the burst is cut into one sub-burst per
// rate-profile entry, each into ticks of a twelfth of it, clamped to
// [100 µs, maxTick], from one tick past its start to its end.
func tickOffsets(s Spec, ranks int) (at []des.Time, subTicks int, tick des.Time) {
	subs := len(s.RateProfile)
	subDur := s.BurstDuration(ranks) / des.Time(subs)
	tick = max(min(subDur/12, maxTick), 100*des.Microsecond)
	subTicks = int(subDur / tick)
	at = make([]des.Time, 0, subs*subTicks)
	for bi := range subs {
		for j := 1; j <= subTicks; j++ {
			at = append(at, des.Time(bi)*subDur+des.Time(j)*tick)
		}
	}
	return at, subTicks, tick
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
