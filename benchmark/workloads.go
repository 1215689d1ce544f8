package main

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/autonomic"
	"repro/internal/chaos"
	"repro/internal/ckpt"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/redundancy"
	"repro/internal/storage"
	"repro/internal/tracker"
	"repro/internal/workload"
)

// opTrace is what a traced operation records into: spans, the storage
// decorators, and per-op sums of the public counters each layer exposes.
// A nil *opTrace runs the operation bare.
type opTrace struct {
	rec    *recorder
	stores *storeTrace
	// sums accumulates (c) counters over every traced op of the run.
	sums map[string]float64
}

func newOpTrace() *opTrace {
	rec := newRecorder()
	return &opTrace{rec: rec, stores: newStoreTrace(rec), sums: make(map[string]float64)}
}

func (t *opTrace) storeTrace() *storeTrace {
	if t == nil {
		return nil
	}
	return t.stores
}

func (t *opTrace) add(name string, v float64) { t.sums[name] += v }

// span runs fn inside a span when traced, bare otherwise.
func (t *opTrace) span(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	id := t.rec.begin(name, 0)
	fn()
	t.rec.end(id)
}

// fingerprint is an FNV-1a hash over a simulated result. Two ops of one
// run fed the same sub-seed must produce equal fingerprints; so must a
// sharded and a sequential run, and a traced and an untraced one.
type fingerprint struct{ h uint64 }

func newFingerprint() *fingerprint { return &fingerprint{h: 14695981039346656037} }

func (f *fingerprint) u64(v uint64) {
	const prime = 1099511628211
	for i := 0; i < 8; i++ {
		f.h ^= v & 0xff
		f.h *= prime
		v >>= 8
	}
}

func (f *fingerprint) f64(v float64) { f.u64(math.Float64bits(v)) }

func (f *fingerprint) series(s *metrics.Series) {
	f.u64(uint64(len(s.Points)))
	for _, p := range s.Points {
		f.f64(p.T)
		f.f64(p.V)
	}
}

// instance is one workload set up for one seed.
type instance interface {
	// run executes one operation on the given sub-seed, verifies it with
	// the repo's own oracles, and returns the result's fingerprint. A
	// non-nil error is a failed operation.
	run(sub uint64, tr *opTrace) (uint64, error)
}

// workloadDef describes one benchmark workload.
type workloadDef struct {
	name string
	why  string
	// variants is how many distinct sub-seeds the ops of a run cycle
	// through. Ops whose cost depends on where the seeded faults land
	// take several, so the run's median is over several fault plans and
	// two runs at different seeds still agree; the rest take one.
	variants int
	setup    func(seed uint64) (instance, error)
	// ladder climbs the rungs of the layers this workload exercises.
	ladder func(*ladder) error
}

func workloads() []workloadDef {
	return []workloadDef{
		{
			name: "iws-paper", variants: 1,
			why:    "the paper's own IWS/IB measurement of all nine apps at 64 ranks on the sequential engine; checkpoint, storage and redundancy layers idle",
			setup:  func(seed uint64) (instance, error) { return newIWS(seed, 0) },
			ladder: iwsLadder(0),
		},
		{
			name: "iws-sharded", variants: 1,
			why:    "the same nine measurements on 4 event shards: isolates epoch barriers and mailboxes; must equal the sequential result bit for bit",
			setup:  func(seed uint64) (instance, error) { return newIWS(seed, 4) },
			ladder: iwsLadder(4),
		},
		{
			name: "protect-sage", variants: 1,
			why:    "write-only checkpointing of Sage-1000MB phantom pages through the full storage wrapper stack; no restore ever runs",
			setup:  func(uint64) (instance, error) { return protectSage{}, nil },
			ladder: protectLadder,
		},
		{
			name: "heal-stencil", variants: 8,
			why:   "supervised backed stencil under crashes, a storage outage and bit flips: commit plus verify, restore and replay, checked bit-exact",
			setup: newHealStencil, ladder: healStencilLadder,
		},
		{
			name: "heal-multilevel", variants: 8,
			why:   "RS 4+2 multi-level hierarchy under a domain crash: parity encode on every line and rebuild on recovery; global storage nearly idle",
			setup: newHealMultilevel, ladder: healMultilevelLadder,
		},
		{
			name: "store-service", variants: 1,
			why:    "32 clients against the replicated checkpoint-store service, healthy and faulted: the only workload crossing its framing and admission",
			setup:  func(uint64) (instance, error) { return storeService{}, nil },
			ladder: storeServiceLadder,
		},
	}
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// subSeed derives variant v's seed from the run seed (splitmix64), never
// zero: the library reads a zero Seed as "use the default".
func subSeed(seed uint64, v int) uint64 {
	z := seed + uint64(v+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// ---- iws-paper / iws-sharded ----

// iws measures all nine applications in turn. shards 0 is the
// sequential engine.
type iws struct {
	shards int
	// seqFP is the sequential engine's fingerprint for the run's single
	// sub-seed, computed during set-up; a sharded op must reproduce it.
	seqFP uint64
}

func newIWS(seed uint64, shards int) (instance, error) {
	w := &iws{shards: shards}
	if shards > 1 {
		fp, err := (&iws{}).run(subSeed(seed, 0), nil)
		if err != nil {
			return nil, fmt.Errorf("sequential reference: %w", err)
		}
		w.seqFP = fp
	}
	return w, nil
}

// appProfile is what one application's measurement yields, whether it
// came from core.Measure or from the instrumented twin.
type appProfile struct {
	avgIB, maxIB, avgFP, maxFP float64
	feasible                   bool
	iws, ib, recv, footprint   *metrics.Series
}

func (w *iws) run(sub uint64, tr *opTrace) (uint64, error) {
	fp := newFingerprint()
	var errSum float64
	for _, app := range core.Apps() {
		var p appProfile
		var err error
		if tr == nil {
			p, err = measureApp(app, sub, w.shards)
		} else {
			p, err = measureAppInstrumented(app, sub, w.shards, tr)
		}
		if err != nil {
			return 0, fmt.Errorf("%s: %w", app, err)
		}
		spec, err := workload.ByName(app)
		if err != nil {
			return 0, err
		}
		// The bands of experiments' TestTable4Bands, and §6.3's verdict.
		if !within(p.avgIB, spec.Paper.AvgIBMBs, 0.30) {
			return 0, fmt.Errorf("%s: avg IB %.2f MB/s outside 30%% of the paper's %.2f", app, p.avgIB, spec.Paper.AvgIBMBs)
		}
		if !within(p.maxIB, spec.Paper.MaxIBMBs, 0.35) {
			return 0, fmt.Errorf("%s: max IB %.2f MB/s outside 35%% of the paper's %.2f", app, p.maxIB, spec.Paper.MaxIBMBs)
		}
		if !p.feasible {
			return 0, fmt.Errorf("%s: measured requirement exceeds a sink (not feasible)", app)
		}
		errSum += relErr(p.avgIB, spec.Paper.AvgIBMBs) + relErr(p.maxIB, spec.Paper.MaxIBMBs) +
			relErr(p.avgFP, spec.Paper.AvgFootprintMB) + relErr(p.maxFP, spec.Paper.MaxFootprintMB)
		fp.f64(p.avgIB)
		fp.f64(p.maxIB)
		fp.f64(p.avgFP)
		fp.f64(p.maxFP)
		fp.series(p.iws)
		fp.series(p.ib)
		fp.series(p.recv)
		fp.series(p.footprint)
	}
	if w.shards > 1 && fp.h != w.seqFP {
		return 0, fmt.Errorf("sharded fingerprint %016x differs from sequential %016x", fp.h, w.seqFP)
	}
	if tr != nil {
		tr.add("core.paper_err_pct", errSum/float64(4*len(core.Apps()))*100)
	}
	return fp.h, nil
}

func within(got, want, tol float64) bool { return math.Abs(got-want) <= tol*math.Abs(want) }

func relErr(got, want float64) float64 { return math.Abs(got-want) / math.Abs(want) }

func measureApp(app string, sub uint64, shards int) (appProfile, error) {
	m, err := core.Measure(core.MeasureConfig{App: app, Seed: sub, Shards: shards})
	if err != nil {
		return appProfile{}, err
	}
	return appProfile{
		avgIB: m.AvgIBMBs, maxIB: m.MaxIBMBs, avgFP: m.AvgFootprintMB, maxFP: m.MaxFootprintMB,
		feasible: m.Feasible(),
		iws:      m.IWS, ib: m.IB, recv: m.Recv, footprint: m.Footprint,
	}, nil
}

// measureAppInstrumented is core.Measure's run (experiments.RunOne at
// the paper's defaults) rebuilt from the layers' exported API, so the
// runner, tracker and world stay reachable and their public counters can
// be read afterwards. It cannot drift unnoticed: the caller compares its
// fingerprint with core.Measure's for the same sub-seed.
func measureAppInstrumented(app string, sub uint64, shards int, tr *opTrace) (appProfile, error) {
	const ranks = 64
	spec, err := workload.ByName(app)
	if err != nil {
		return appProfile{}, err
	}
	var r *workload.Runner
	tr.span("workload.new", func() {
		r, err = workload.New(spec, workload.Config{Ranks: ranks, Seed: sub, Shards: shards})
	})
	if err != nil {
		return appProfile{}, err
	}
	// OnSample and the delivery hook fire on rank 0's shard worker in a
	// sharded run, hence the atomics.
	var samples, deliveries atomic.Uint64
	tk, err := tracker.New(r.EngineFor(0), r.Space(0), tracker.Options{
		Timeslice: des.Second,
		OnSample:  func(tracker.Sample) { samples.Add(1) },
	})
	if err != nil {
		return appProfile{}, err
	}
	tk.AttachRank(r.World, 0)
	inner := r.World.Rank(0).SetDeliveryHook(nil)
	r.World.Rank(0).SetDeliveryHook(func(b uint64, at des.Time) {
		deliveries.Add(1)
		inner(b, at)
	})

	tr.span("workload.run_init", func() { err = toIterZero(r) })
	if err != nil {
		return appProfile{}, err
	}
	tk.Start()
	tr.span("workload.run_measured", func() { r.Run(r.Now() + measureWindow(spec, ranks)) })
	tk.Stop()

	ib := metrics.Summarize(tk.IBSeries())
	foot := metrics.Summarize(tk.FootprintSeries())
	p := appProfile{
		avgIB: ib.Mean, maxIB: ib.Max, avgFP: foot.Mean, maxFP: foot.Max,
		feasible: storage.QsNetSink().Headroom(ib.Mean*core.MB) > 1 && storage.SCSISink().Headroom(ib.Mean*core.MB) > 1,
		iws:      tk.IWSSeries(), ib: tk.IBSeries(), recv: tk.RecvSeries(), footprint: tk.FootprintSeries(),
	}

	tr.add("des.events_per_op", float64(r.Eng.Fired()))
	tr.add("des.crit_path_events_per_op", float64(r.CriticalPathEvents()))
	tr.add("tracker.faults_per_op", float64(tk.TotalFaults()))
	tr.add("tracker.samples_per_op", float64(samples.Load()))
	tr.add("tracker.deliveries_per_op", float64(deliveries.Load()))
	tr.add("tracker.sim_overhead_s", tk.TotalOverhead().Seconds())
	addWorldCounters(tr, r.World)
	return p, nil
}

// addWorldCounters folds one MPI world's public per-rank counters, and
// its ranks' address-space counters, into the traced sums.
func addWorldCounters(tr *opTrace, w *mpi.World) {
	for i := 0; i < w.Size(); i++ {
		st := w.Rank(i).Stats()
		tr.add("mpi.sends_per_op", float64(st.Sends))
		tr.add("mpi.sent_MB_per_op", float64(st.BytesSent)/1e6)
		tr.add("mpi.collectives_per_op", float64(st.CollectiveCalls))
		tr.add("mpi.barrier_wait_sim_s", st.BarrierWaitTotal.Seconds())
		sp := w.Rank(i).Space()
		tr.add("mem.faults_per_op", float64(sp.Faults()))
		tr.add("mem.written_MB_per_op", float64(sp.WrittenBytes())/1e6)
	}
}

// ---- protect-sage ----

type protectSage struct{}

func protectConfig(sub uint64, store storage.Store) core.ProtectConfig {
	return core.ProtectConfig{
		App: "Sage-1000MB", Ranks: 8, Interval: 10 * des.Second, Periods: 2,
		FullEvery: 8, TrackCow: true, Seed: sub, Store: store,
	}
}

func (protectSage) run(sub uint64, tr *opTrace) (uint64, error) {
	st, err := buildStack(tr.storeTrace(), nil)
	if err != nil {
		return 0, err
	}
	var res *core.ProtectResult
	tr.span("core.protect", func() {
		res, err = core.Protect(protectConfig(sub, st.top))
	})
	if err != nil {
		return 0, err
	}
	if res.Checkpoints == 0 {
		return 0, fmt.Errorf("no coordinated checkpoint was taken")
	}
	if tr != nil {
		// Name both kinds even if a run should hold only one of them.
		tr.add("ckpt.full_pages_per_op", 0)
		tr.add("ckpt.delta_pages_per_op", 0)
	}
	fp := newFingerprint()
	fp.f64(res.TotalMB)
	fp.f64(res.CowMB)
	fp.f64(res.MaxCommitS)
	for _, g := range res.Globals {
		fp.u64(g.Seq)
		fp.u64(uint64(g.At))
		fp.u64(g.TotalPageBytes)
		for _, r := range g.PerRank {
			fp.u64(r.Pages)
			fp.u64(r.Bytes)
		}
		if tr == nil {
			continue
		}
		for _, r := range g.PerRank {
			tr.add("ckpt.checkpoints_per_op", 1)
			if r.Kind == ckpt.Full {
				tr.add("ckpt.full_pages_per_op", float64(r.Pages))
			} else {
				tr.add("ckpt.delta_pages_per_op", float64(r.Pages))
			}
			tr.add("ckpt.payload_MB_per_op", float64(r.PayloadBytes)/1e6)
		}
	}
	if tr != nil {
		tr.add("ckpt.cow_MB_per_op", res.CowMB)
		tr.add("ckpt.MB_per_line", res.MeanPerCkptMB)
		addStackCounters(tr, st)
	}
	return fp.h, nil
}

// addStackCounters folds the storage wrappers' own public stats into
// the traced sums (the decorators' counts are read once, at the end).
func addStackCounters(tr *opTrace, st *stack) {
	for _, r := range st.resilient {
		tr.add("storage.retries_per_op", float64(r.Stats().Retries))
	}
	for _, in := range st.integrity {
		tr.add("storage.corrupt_reads_per_op", float64(in.CorruptReads()))
	}
	tr.add("storage.read_repairs_per_op", float64(st.mirror.Stats().ReadRepairs))
}

// ---- heal-stencil / heal-multilevel ----

// heal validates crash–restore–replay equivalence of one supervised
// configuration under one chaos schedule.
type heal struct {
	cfg   autonomic.Config
	sched *chaos.Schedule
}

// The schedule keeps the ISSUE's fault mix. Replica 0 of the mirror
// takes the outage and the bit flips, replica 1 stays healthy, so a
// crash landing inside the outage window still finds its line — without
// the mirror roughly one seed in six dies there with ErrUnavailable.
const healStencilSchedule = `
crash at 2s..12s count 2 jitter 300ms
commit-crash at 1s..20s count 1
storage-outage at 7s..8s
bitflip at 1200ms..15s count 4
`

const healMultilevelSchedule = `
domain-crash at 2500ms..30s domain d1
crash at 5s..8s count 1
`

func healStencilConfig() autonomic.Config {
	return autonomic.Config{
		Ranks: 8, Nx: 256, RowsPerRank: 64, Boundary: 9,
		Iterations: 80, CkptEvery: 5,
		ComputeTime:     250 * des.Millisecond,
		RestartOverhead: des.Second,
		TwoPhaseCommit:  true,
	}
}

func healMultilevelConfig() (autonomic.Config, error) {
	domains, err := cluster.NewDomainMap(12, 2)
	if err != nil {
		return autonomic.Config{}, err
	}
	return autonomic.Config{
		Ranks: 12, Nx: 256, RowsPerRank: 64, Boundary: 9,
		Iterations: 40, CkptEvery: 5,
		ComputeTime:     250 * des.Millisecond,
		RestartOverhead: 500 * des.Millisecond,
		MultiLevel: &autonomic.MultiLevelOptions{
			Scheme:      redundancy.Scheme{Kind: redundancy.RS, K: 4, M: 2},
			Domains:     domains,
			GlobalEvery: 8,
			FullEvery:   8,
		},
	}, nil
}

func newHealStencil(uint64) (instance, error) {
	sched, err := chaos.ParseSchedule(healStencilSchedule)
	if err != nil {
		return nil, err
	}
	return &heal{cfg: healStencilConfig(), sched: sched}, nil
}

func newHealMultilevel(uint64) (instance, error) {
	sched, err := chaos.ParseSchedule(healMultilevelSchedule)
	if err != nil {
		return nil, err
	}
	cfg, err := healMultilevelConfig()
	if err != nil {
		return nil, err
	}
	return &heal{cfg: cfg, sched: sched}, nil
}

func (w *heal) run(sub uint64, tr *opTrace) (uint64, error) {
	cfg := w.cfg
	cfg.Seed = sub
	var worlds []*mpi.World
	if tr != nil {
		cfg.Workload = timedFactory{
			inner:  autonomic.StencilFactory{Nx: cfg.Nx, RowsPerRank: cfg.RowsPerRank, Boundary: cfg.Boundary, ComputeTime: cfg.ComputeTime},
			rec:    tr.rec,
			worlds: &worlds,
		}
	}
	var st *stack
	var stackErr error
	var injected *des.Engine
	var out *autonomic.ReplayOutcome
	var err error
	tr.span("autonomic.validate_replay", func() {
		out, err = autonomic.ValidateReplayStore(cfg, w.sched, func(eng *des.Engine, d *chaos.Driver) storage.Store {
			injected = eng
			st, stackErr = buildStack(tr.storeTrace(), d.WrapStore)
			if stackErr != nil {
				return storage.NewMemStore()
			}
			return st.top
		})
	})
	if stackErr != nil {
		return 0, stackErr
	}
	if err != nil {
		return 0, err
	}
	ref, inj := out.Reference, out.Injected
	switch {
	case !ref.Completed || !inj.Completed:
		return 0, fmt.Errorf("run did not complete (reference %v, injected %v)", ref.Completed, inj.Completed)
	case !out.BitExact():
		return 0, fmt.Errorf("replay is not bit-exact (digests %v, checksum %v)", out.DigestsMatch, out.ChecksumMatch)
	case inj.Failures == 0:
		return 0, fmt.Errorf("the chaos plan landed no failure")
	}
	fp := newFingerprint()
	for _, r := range []*autonomic.Report{ref, inj} {
		fp.f64(r.Checksum)
		for _, d := range r.SpaceDigests {
			fp.u64(d)
		}
		fp.u64(uint64(r.Failures))
		fp.u64(uint64(r.LostIterations))
		fp.u64(uint64(r.CommittedLines))
		fp.u64(uint64(r.Elapsed))
		fp.f64(r.CheckpointVolumeMB)
		fp.f64(r.ParityVolumeMB)
	}
	if tr == nil {
		return fp.h, nil
	}

	lines := float64(ref.CommittedLines + inj.CommittedLines)
	tr.add("autonomic.failures_per_op", float64(inj.Failures))
	tr.add("autonomic.recoveries_per_op", float64(inj.Recoveries))
	tr.add("autonomic.degraded_recoveries_per_op", float64(inj.DegradedRecoveries))
	tr.add("autonomic.lost_iterations_per_op", float64(inj.LostIterations))
	tr.add("autonomic.committed_lines_per_op", lines)
	tr.add("autonomic.aborted_commits_per_op", float64(inj.AbortedCommits))
	tr.add("autonomic.sim_commit_s", (ref.CommitTime + inj.CommitTime).Seconds())
	for _, ev := range inj.FailureLog {
		tr.add("autonomic.sim_downtime_s", ev.Downtime.Seconds())
	}
	tr.add("autonomic.sim_efficiency_pct", inj.Efficiency*100)
	tr.add("ckpt.payload_MB_per_op", ref.CheckpointVolumeMB+inj.CheckpointVolumeMB)
	tr.add("ckpt.MB_per_line", (ref.CheckpointVolumeMB+inj.CheckpointVolumeMB)/lines)
	tr.add("des.events_per_op", float64(injected.Fired()))
	for _, world := range worlds {
		addWorldCounters(tr, world)
	}
	addStackCounters(tr, st)
	if cfg.MultiLevel != nil {
		tr.add("redundancy.encodes_per_op", lines-float64(ref.ParityEncodeFailures+inj.ParityEncodeFailures))
		tr.add("redundancy.parity_MB_per_op", ref.ParityVolumeMB+inj.ParityVolumeMB)
		tr.add("redundancy.exchange_sim_s", (ref.L2ExchangeTime + inj.L2ExchangeTime).Seconds())
		tr.add("redundancy.rebuilds_per_op", float64(inj.ParityRebuilds))
		tr.add("redundancy.repairs_per_op", float64(inj.ParityRepairs))
		tr.add("redundancy.l1_read_MB", float64(inj.LevelReadBytes[redundancy.LevelLocal])/1e6)
		tr.add("redundancy.l2_read_MB", float64(inj.LevelReadBytes[redundancy.LevelParity])/1e6)
		tr.add("redundancy.l3_read_MB", float64(inj.LevelReadBytes[redundancy.LevelGlobal])/1e6)
	}
	return fp.h, nil
}

// ---- store-service ----

type storeService struct{}

// serviceHorizonS is A17's measured horizon (10 ticks of 1 s), the base
// ServiceRow's MB/s figures are taken over.
const serviceHorizonS = 10

func (storeService) run(sub uint64, tr *opTrace) (uint64, error) {
	var rows []experiments.ServiceRow
	var err error
	tr.span("experiments.service_ablation", func() {
		rows, err = experiments.ServiceAblation(sub, []int{32})
	})
	if err != nil {
		return 0, err
	}
	fp := newFingerprint()
	var p99 des.Time
	for _, r := range rows {
		if !r.Lossless {
			return 0, fmt.Errorf("service row (clients %d, faulted %v) lost an acknowledged segment", r.Clients, r.Faulted)
		}
		fp.f64(r.OfferedMBs)
		fp.f64(r.AckedMBs)
		fp.u64(uint64(r.P99Put))
		for _, v := range []uint64{r.Sheds, r.Deadlines, r.QuorumFailures, r.Coalesced, r.SyncAcks, r.AsyncAcks, r.SpillAcks, r.Failovers, r.ModeChanges} {
			fp.u64(v)
		}
		if tr == nil {
			continue
		}
		// Every put resolves as an ack at some durability or a refusal.
		tr.add("ckptstore.puts_per_op", float64(r.SyncAcks+r.AsyncAcks+r.SpillAcks+r.Sheds+r.Deadlines))
		tr.add("ckptstore.acked_MB_per_op", r.AckedMBs*serviceHorizonS)
		tr.add("ckptstore.sheds_per_op", float64(r.Sheds))
		tr.add("ckptstore.quorum_failures_per_op", float64(r.QuorumFailures))
		tr.add("ckptstore.coalesced_per_op", float64(r.Coalesced))
		tr.add("ckptstore.failovers_per_op", float64(r.Failovers))
		tr.add("ckptstore.mode_changes_per_op", float64(r.ModeChanges))
		tr.add("ckptstore.acked_MBps_sim", r.AckedMBs)
		if r.P99Put > p99 {
			p99 = r.P99Put
		}
	}
	if tr != nil {
		tr.add("ckptstore.put_p99_sim_ms", float64(p99)/float64(des.Millisecond))
	}
	return fp.h, nil
}
