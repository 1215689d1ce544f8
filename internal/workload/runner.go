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
	// Shards selects the event-engine topology. Zero or one runs the
	// whole simulation on a single sequential engine (the default, and
	// bit-identical to historical runs). Larger values spread ranks
	// round-robin across that many parallel event shards (clamped to
	// Ranks), synchronised at deterministic epoch barriers; per-seed
	// results are identical at every shard count.
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

	// Eng is the engine experiments drive Run/Step on and the home of
	// control-plane work (coordinators, adaptive controllers). With
	// Shards <= 1 it is the single sequential engine; otherwise it is
	// the group's control engine, whose events run at serial instants.
	Eng    *des.Engine
	World  *mpi.World
	group  *des.Group
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
	r := &Runner{Spec: spec, Cfg: cfg, spaces: spaces}
	// One backing array for every rank's held sub-burst handles.
	held := make([]des.Event, cfg.Ranks*len(spec.RateProfile))
	if cfg.Shards > 1 {
		r.group = des.NewGroup(min(cfg.Shards, cfg.Ranks))
		r.Eng = r.group.Control()
		engs := make([]*des.Engine, cfg.Ranks)
		for i := range engs {
			engs[i] = r.EngineFor(i)
		}
		world, err := mpi.NewShardedWorld(engs, cfg.Net, mpi.Bounce, spaces)
		if err != nil {
			return nil, err
		}
		r.World = world
	} else {
		r.Eng = des.NewEngine()
		world, err := mpi.NewWorld(r.Eng, cfg.Net, mpi.Bounce, spaces)
		if err != nil {
			return nil, err
		}
		r.World = world
	}
	for i := 0; i < cfg.Ranks; i++ {
		a, err := newApp(r, i)
		if err != nil {
			return nil, err
		}
		a.held = held[i*len(spec.RateProfile) : (i+1)*len(spec.RateProfile)]
		r.apps = append(r.apps, a)
	}
	r.profile = normalize(spec.RateProfile)
	r.sendAt = sendOffsets(spec, cfg.Ranks, r.apps[0].nMsgs)
	// All ranks begin initialization at t=0, each on its own engine.
	for _, a := range r.apps {
		a := a
		a.eng.Schedule(0, func() { a.startInit() })
	}
	return r, nil
}

// Space hands out rank i's address space: the door every tracker,
// checkpointer and migrator attaches through. Until a rank's space has been
// handed out, nothing can observe it mid-burst, so the runner holds each of
// its sweep sub-bursts as one event (des.Engine.HoldSeriesLocal); handing
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

// EngineFor returns the engine rank i's events execute on: the single
// sequential engine, or the rank's data shard in a sharded run. Per-rank
// instruments (trackers, checkpointers) must bind to this engine so
// their callbacks stay on the rank's shard.
func (r *Runner) EngineFor(i int) *des.Engine {
	if r.group != nil {
		return r.group.Shard(i % r.group.Shards())
	}
	return r.Eng
}

// CriticalPathEvents reports the longest dependent event chain executed
// so far. Eng.Fired()/CriticalPathEvents() is the run's available
// concurrency — deterministic per seed and shard count, unlike
// wall-clock. A sequential run has every event on the chain.
func (r *Runner) CriticalPathEvents() uint64 {
	if r.group != nil {
		return r.group.CriticalPathEvents()
	}
	return r.Eng.Fired()
}

// Run advances the simulation until the given virtual time. Held
// sub-bursts are released when it returns, so between runs every space —
// handed out or not — is in its tick-by-tick state.
func (r *Runner) Run(until des.Time) {
	r.Eng.Run(until)
	for _, a := range r.apps {
		a.release()
	}
}

// Now reports the run's current virtual time: the engine clock, or the
// maximum member clock of a sharded group (members may transiently skew
// within an epoch; they unify at Run boundaries).
func (r *Runner) Now() des.Time {
	if r.group != nil {
		return r.group.Now()
	}
	return r.Eng.Now()
}

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
// iteration boundary run to this point in bulk (parallel in a sharded
// run), then Step the remaining handful of events; the resulting event
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
	eng   *des.Engine // the rank's engine (shard or sequential)
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
	msgBytes       uint64
	nMsgs          int

	iter      int
	transient *mem.Region
	cursor    uint64  // sweep position within the iteration's spans
	spanBuf   [2]span // scratch backing for iterationSpans

	handed bool        // Runner.Space has handed the space out
	held   []des.Event // this iteration's held sub-bursts, one per profile entry
}

// release turns the rank's held sub-bursts into ordinary series, running
// the ticks already due (des.Event.Release).
func (a *app) release() {
	for _, h := range a.held {
		h.Release()
	}
}

func newApp(r *Runner, id int) (*app, error) {
	s := r.Spec
	a := &app{
		r:     r,
		id:    id,
		rank:  r.World.Rank(id),
		eng:   r.EngineFor(id),
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
	return a, nil
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
		a.writeAcross(spans, pos, n)
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
// concatenation of the given spans, wrapping around.
func (a *app) writeAcross(spans []span, pos, n uint64) {
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
		if err := a.space.WriteRange(sp.base+rem, w); err != nil {
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

	// Dynamic applications map their transient arena for the duration
	// of the processing burst (§4.1: Fortran90 allocates per cycle).
	// Mapping touches only this rank's space, so the event is local.
	if s.Dynamic && a.transientBytes > 0 {
		eng.AfterLocal(jitter, func() {
			t, err := a.space.Mmap(a.transientBytes)
			if err != nil {
				panic(fmt.Sprintf("workload %s: transient mmap: %v", s.Name, err))
			}
			a.transient = t
		})
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
	// Temporal locality: each tick also rewrites the whole trailing
	// dwell window behind the sweep cursor. Re-touching already-dirty
	// pages is nearly free in the simulation (a bitmap word scan), and
	// in measurement terms the window contributes a constant DwellMB to
	// every timeslice's IWS — the hot-inner-array behaviour.
	dwellBytes := uint64(s.DwellMB * MB)
	for bi, mult := range profile {
		rate := meanRate * mult
		perTick := uint64(rate * tick.Seconds())
		start := jitter + des.Time(bi)*subDur
		// One closure serves every tick of this sub-burst: the per-tick
		// state (cursor, spans) lives on the app.
		doTick := func() {
			spans := a.iterationSpans()
			a.writeAcross(spans, a.cursor, perTick)
			a.cursor += perTick
			if dwellBytes > 0 {
				var total uint64
				for _, sp := range spans {
					total += sp.size
				}
				if dwellBytes < total {
					a.writeAcross(spans, a.cursor+total-dwellBytes, dwellBytes)
				}
			}
			if !a.handed && a.space.Faults() != 0 {
				panic(fmt.Sprintf("workload %s rank %d: write faults on a space never handed out by Runner.Space; its sweeps run held", a.r.Spec.Name, a.id))
			}
		}
		// Sweep ticks write this rank's memory and schedule nothing, so
		// they are local events: a sharded run excludes them from epoch
		// horizons, which is what lets shards advance in parallel. The
		// sub-burst's ticks, every tick from start+tick to start+subDur,
		// are one series: one queue entry, not one per tick. On a rank
		// nothing observes (Space) they are also one event, at the last
		// tick, until the space is handed out or the run returns.
		first, n := iterStart+start+tick, int(subDur/tick)
		if a.handed {
			eng.ScheduleSeriesLocal(first, tick, n, doTick)
			continue
		}
		// A burst overrunning its period could leave last iteration's
		// hold pending; it becomes ordinary rather than being forgotten.
		a.held[bi].Release()
		a.held[bi] = eng.HoldSeriesLocal(first, tick, n, doTick)
	}

	// Burst end: drop the transient arena (memory exclusion target).
	eng.AfterLocal(jitter+burst, func() {
		if a.transient != nil {
			if err := a.space.Munmap(a.transient); err != nil {
				panic(fmt.Sprintf("workload %s: transient munmap: %v", s.Name, err))
			}
			a.transient = nil
		}
	})

	// Communication burst: ring exchange with the right neighbour in
	// clumps spread across the window between burst end and period end.
	if a.nMsgs > 0 {
		a.scheduleComm(iterStart, burst)
	}

	// Global reduction at period end synchronises ranks and starts the
	// next iteration (the paper's codes end iterations with global
	// convergence checks).
	eng.Schedule(iterStart+period, func() {
		a.rank.AllReduce(8, a.stripBase, func() {
			a.iter++
			a.startIteration()
		})
	})
}

// scheduleComm posts this iteration's receives and schedules its sends.
func (a *app) scheduleComm(iterStart, burst des.Time) {
	eng := a.eng
	right := (a.id + 1) % a.r.Cfg.Ranks
	slots := max(1, int(a.stripBytes/a.msgBytes))

	// Post all receives at burst end; they match sends as they arrive.
	eng.Schedule(iterStart+burst, func() {
		for j := 0; j < a.nMsgs; j++ {
			dest := a.stripBase + uint64(j%slots)*a.msgBytes
			a.rank.Recv(mpi.AnySource, 0, dest, nil)
		}
	})
	// The iteration's sends are one comm series over the shared offsets.
	eng.ScheduleSeriesAt(iterStart, a.r.sendAt, func() { a.rank.Send(right, 0, a.msgBytes, nil) })
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
