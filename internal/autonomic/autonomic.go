// Package autonomic closes the loop the paper opens in §1: "there is an
// inevitable need for autonomic computing systems which are able to
// self-heal and self-repair". It runs a genuinely distributed computation
// (a halo-exchanging Jacobi solve across MPI ranks) under coordinated
// incremental checkpointing, injects node failures, and recovers
// automatically — restore every rank from the last consistent line,
// rebuild the communicator, re-attach the solver, resume — until the
// computation completes. Everything happens in one deterministic
// discrete-event simulation, so the end-to-end efficiency under failures
// is *measured*, not modelled, and the final answer is verified against
// an uninterrupted run.
package autonomic

import (
	"errors"
	"fmt"

	"repro/internal/chaos"
	"repro/internal/ckpt"
	"repro/internal/ckptspec"
	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/mpi"
	"repro/internal/redundancy"
	"repro/internal/storage"
)

// Computation is a distributed, resumable, stoppable iterative program —
// the contract kernels.DistStencil, kernels.DistPut and kernels.Solo
// satisfy through one iteration loop. An iteration completes when its
// compute time has elapsed after its work: a failure inside that delay
// lands at the iterations completed before it.
type Computation interface {
	// Run iterates to target; onIter (optional) runs after each
	// completed iteration with a continuation; onDone at completion.
	Run(target int, onIter func(iter int, next func()), onDone func())
	// Stop abandons the computation (failure path).
	Stop()
	// Iter reports completed iterations.
	Iter() int
	// Exchanged reports the exchange time of the completed iterations:
	// what each waited on its halos before its compute time started.
	Exchanged() des.Time
	// Gather returns the global solution for verification.
	Gather() ([]float64, error)
}

// Factory builds a computation fresh or re-attaches it to restored
// address spaces.
type Factory interface {
	New(eng *des.Engine, world *mpi.World) (Computation, error)
	Attach(eng *des.Engine, world *mpi.World, iter int) (Computation, error)
}

// StencilFactory supervises a halo-exchanging Jacobi solve.
type StencilFactory struct {
	Nx, RowsPerRank int
	Boundary        float64
	ComputeTime     des.Time
}

// New implements Factory.
func (f StencilFactory) New(eng *des.Engine, world *mpi.World) (Computation, error) {
	return kernels.NewDistStencil(eng, world, f.Nx, f.RowsPerRank, f.Boundary, f.ComputeTime)
}

// Attach implements Factory.
func (f StencilFactory) Attach(eng *des.Engine, world *mpi.World, iter int) (Computation, error) {
	return kernels.AttachDistStencil(eng, world, f.Nx, f.RowsPerRank, f.ComputeTime, iter)
}

// Config is a supervised run: what it computes, how it checkpoints,
// what its stable storage is and what fails. It carries no engine, no
// chaos driver and no storage stack — Run builds its own engine, for a
// non-empty Faults the chaos driver of its compiled plan, and the stack
// Store and Replicas describe.
type Config struct {
	// Workload picks the computation; nil selects a StencilFactory
	// built from the grid fields below.
	Workload Factory
	// Ranks is the number of MPI processes (>= 1).
	Ranks int
	// Nx and RowsPerRank shape the decomposed grid.
	Nx, RowsPerRank int
	// Boundary is the Dirichlet boundary value.
	Boundary float64
	// Iterations is the total sweeps to complete.
	Iterations int
	// CkptEvery takes a coordinated checkpoint after every N completed
	// iterations (>= 1).
	CkptEvery int
	// ComputeTime is the virtual cost of one sweep.
	ComputeTime des.Time
	// Faults is what fails, in the chaos schedule language (see
	// chaos.ParseSchedule), compiled with Seed: "crash every exp 4s" is a
	// machine failing every ~4 s (the system MTBF), "net loss 0.1 dup
	// 0.02 jitter 300us seed 23" a flaky interconnect, and every other
	// line one planned fault. Storage lines strike the bottom of the
	// storage stack, below any hardening (see Replicas). Empty means
	// nothing fails.
	Faults string
	// RestartOverhead is the fixed downtime per failure (detection,
	// reboot, re-spawn) on top of the chain-read time.
	RestartOverhead des.Time
	// Sink models stable storage (zero → SCSI).
	Sink storage.Model
	// Store is the stable-storage backend, where the bytes land (nil →
	// a fresh in-memory store): a storage.FileStore, or a store a test
	// logs through. It holds no hardening; that is Replicas.
	Store storage.Store
	// Replicas is the hardening. Zero writes to the backend alone. n >= 1
	// builds n replicas, replica i being a backend → the chaos driver's
	// store i → storage.IntegrityStore → storage.ResilientStore
	// (storage.DefaultRetryPolicy), mirrored by a storage.MirrorStore
	// when n >= 2. One replica's backend is Store; two or more get a
	// fresh in-memory backend each, so Store must then be nil
	// (ErrStoreWithReplicas). Faults' storage lines strike below the
	// envelope: the timed lines strike store 0, a storage-decay line the
	// store it names, and a line naming store max(1, n) or beyond is
	// refused (ErrUnreachableStore). Report.Decay, Retry and Mirror count
	// what the stack did.
	Replicas int
	// Seed drives failure times deterministically.
	Seed uint64

	// HeartbeatPeriod, when > 0 (and Ranks > 1), runs a gossip-style
	// heartbeat failure detector over the (possibly flaky) interconnect;
	// a negative period is refused.
	// Failures are then *detected* rather than observed instantly: the
	// measured detection latency of each failure is added to its
	// downtime and recorded in the report. With the detector off, the
	// supervisor notices failures immediately — the paper's idealised
	// constant-overhead assumption.
	HeartbeatPeriod des.Time
	// TwoPhaseCommit switches coordinated checkpoints to the
	// prepare/commit protocol: ranks write segments in the prepare
	// phase and a per-line COMMIT marker is written only after every
	// rank's sink write acks. Recovery then trusts only committed
	// lines, so a mid-checkpoint failure can never surface a line the
	// key space merely advertises.
	TwoPhaseCommit bool
	// RDMA picks how NIC writes land. The zero value delivers every
	// message through bounce buffers the CPU copies out, so the tracker
	// sees every write. RDMANaive and RDMADrain run the team over an
	// OS-bypass interconnect (mpi.Direct with registered memory regions):
	// one-sided NIC writes land without raising tracker faults, and the
	// mode picks naive checkpointing (measure the silent under-count) or
	// the drain protocol (close it).
	RDMA RDMAMode
	// Spec, when non-nil, is applied to every rank's space before its
	// checkpointer starts: regions the ckptset analyzer classified as
	// recomputable are marked, so no log protects or captures them (the
	// restore recreates them zero-filled), and their recompute hooks
	// run on every re-attach before the team resumes. The workload
	// must implement SpecBound to participate; others run unchanged.
	Spec *ckptspec.Spec
	// MultiLevel, when non-nil, runs the checkpoint hierarchy: ranks
	// commit to rank-local L1 stores, every committed line is parity-
	// protected across ranks by the configured erasure scheme (L2), and
	// the global store (Store/Sink above) becomes the L3 tier written
	// only every GlobalEvery lines. Failures wipe the victims' L1
	// stores; recovery reads through the tiers — L1, L2 rebuild, L3 —
	// with per-level accounting in the report. The chaos DSL's
	// domain-crash fault kills whole failure domains at once and its
	// parity-flip rots placed parity, so a plan that holds either needs
	// MultiLevel (see Config.plan).
	MultiLevel *MultiLevelOptions
}

// SpecBound is the optional Computation extension that ties a rank's
// live arenas to protection-spec names. kernels.DistStencil and
// kernels.Solo implement it.
type SpecBound interface {
	ProtectionBindings(rank int) []ckptspec.Binding
}

// maxFailures aborts pathological runs.
const maxFailures = 1000

func (c Config) withDefaults() Config {
	if c.Nx == 0 {
		c.Nx = 64
	}
	if c.RowsPerRank == 0 {
		c.RowsPerRank = 16
	}
	if c.Ranks == 0 {
		c.Ranks = 4
	}
	if c.Iterations == 0 {
		c.Iterations = 50
	}
	if c.CkptEvery == 0 {
		c.CkptEvery = 5
	}
	if c.ComputeTime == 0 {
		c.ComputeTime = 100 * des.Millisecond
	}
	if c.RestartOverhead == 0 {
		c.RestartOverhead = 2 * des.Second
	}
	if c.Sink == (storage.Model{}) {
		c.Sink = storage.SCSISink()
	}
	if c.Workload == nil {
		c.Workload = StencilFactory{
			Nx: c.Nx, RowsPerRank: c.RowsPerRank,
			Boundary: c.Boundary, ComputeTime: c.ComputeTime,
		}
	}
	return c
}

func (c Config) validate() error {
	switch {
	case c.Ranks < 1:
		return fmt.Errorf("autonomic: ranks %d", c.Ranks)
	case c.Nx < 3 || c.RowsPerRank < 1:
		return fmt.Errorf("autonomic: grid %dx%d", c.Nx, c.RowsPerRank)
	case c.Iterations < 1 || c.CkptEvery < 1:
		return fmt.Errorf("autonomic: iterations %d / ckpt every %d", c.Iterations, c.CkptEvery)
	case c.RestartOverhead < 0:
		return fmt.Errorf("autonomic: negative restart overhead %v", c.RestartOverhead)
	case c.HeartbeatPeriod < 0:
		return fmt.Errorf("autonomic: negative heartbeat period %v (zero disables the detector)", c.HeartbeatPeriod)
	case c.Replicas < 0:
		return fmt.Errorf("autonomic: %d replicas", c.Replicas)
	case c.Store != nil && c.Replicas >= 2:
		return fmt.Errorf("%w (%d replicas)", ErrStoreWithReplicas, c.Replicas)
	}
	return nil
}

// ErrStoreWithReplicas refuses a config that sets a backend Store
// together with two or more Replicas: each replica needs a backend of
// its own.
var ErrStoreWithReplicas = errors.New("autonomic: a backend Store serves one replica, not a mirror")

// ErrUnreachableStore refuses a plan whose storage-decay line names a
// store the config's storage stack does not build: store i needs
// max(1, Replicas) > i.
var ErrUnreachableStore = errors.New("autonomic: a storage-decay line strikes a store the stack does not build")

// plan compiles c's Faults and extra (nil for none) as one schedule with
// c's Seed — nil when both are empty: nothing fails — and refuses a plan
// holding faults c has no place to land: a storage-decay line on store i
// needs a stack of more than i stores, a domain crash MultiLevel's
// failure domains, a parity flip its parity, and a crash-during-drain
// the drain protocol.
func (c Config) plan(extra *chaos.Schedule) (*chaos.Plan, error) {
	if c.Faults == "" && extra == nil {
		return nil, nil
	}
	sched := extra
	if c.Faults != "" {
		own, err := chaos.ParseSchedule(c.Faults)
		if err != nil {
			return nil, fmt.Errorf("autonomic: faults: %w", err)
		}
		if extra != nil {
			own.Specs = append(own.Specs, extra.Specs...)
		}
		sched = own
	}
	p, err := sched.Compile(c.Seed)
	if err != nil {
		return nil, err
	}
	for _, dc := range p.Decays {
		if n := max(1, c.Replicas); dc.Store >= n {
			return nil, fmt.Errorf("%w: store %d of %d", ErrUnreachableStore, dc.Store, n)
		}
	}
	switch {
	case len(p.DomainCrashes) > 0 && c.MultiLevel == nil:
		return nil, fmt.Errorf("autonomic: chaos plan holds domain-crash faults, but without MultiLevel the run has no failure domains")
	case len(p.ParityFlips) > 0 && c.MultiLevel == nil:
		return nil, fmt.Errorf("autonomic: chaos plan holds parity-flip faults, but without MultiLevel the run places no parity")
	case len(p.DrainCrashes) > 0 && c.RDMA != RDMADrain:
		return nil, fmt.Errorf("autonomic: chaos plan holds crash-during-drain faults, but the run has no RDMA drain protocol")
	}
	return p, nil
}

// FailureEvent is the per-failure lost-work record: when the failure
// struck, what it cost, and where recovery landed. The chaos
// equivalence validator asserts every injected failure carries non-zero
// accounting — lost iterations, downtime, or wasted checkpoint lines.
type FailureEvent struct {
	// At is the virtual time the failure struck.
	At des.Time
	// Iter is the completed-iteration count at the failure instant.
	Iter int
	// DuringCommit reports that a two-phase commit round was in flight
	// when the failure struck (the torn-line window).
	DuringCommit bool
	// RestoredIter is the iteration of the line recovery restored to
	// (0 for a scratch restart).
	RestoredIter int
	// LostIterations is Iter - RestoredIter: the work that must be
	// replayed. For nested failures absorbed by one recovery, each
	// event records its own distance to the common restored line.
	LostIterations int
	// WastedCheckpoints counts committed lines newer than the restored
	// line at recovery time: checkpoints whose cost bought nothing
	// because the failure forced a rollback past them. Each line is
	// charged to at most one failure. Recorded on the batch's first
	// event.
	WastedCheckpoints int
	// Downtime is a span, not a slice of the ledger: the virtual time
	// from this failure to the rebuilt team resuming — detection,
	// selection, chain read, respawn. Failures absorbed by one recovery
	// share its end, so their windows overlap and the sum of
	// FailureLog[].Downtime counts that overlap twice: the sum can exceed
	// the run's real downtime, which is Report.Ledger[Down].
	Downtime des.Time
}

// Report summarises a supervised run.
type Report struct {
	Completed  bool
	Iterations int
	// Failures injected and recoveries performed (equal on success).
	Failures, Recoveries int
	// DegradedRecoveries counts recoveries that could not use the
	// newest consistent line — its segments were torn, corrupt or
	// unreadable — and fell back to an earlier verified line (or to a
	// scratch restart when no line survived verification).
	DegradedRecoveries int
	// CheckpointFailures counts coordinated checkpoints the storage
	// tier refused; the run continues without that line and the next
	// checkpoint re-bases a fresh chain.
	CheckpointFailures int
	// AbortedCommits counts two-phase rounds rolled back *after* a
	// successful prepare — a rank death inside the commit window or a
	// refused COMMIT-marker write. Distinct
	// from CheckpointFailures (prepare-phase storage refusals): an
	// aborted commit had already paid the sink writes and deleted them.
	AbortedCommits int
	// DetectionLatencies holds, per heartbeat-detected failure, the
	// measured virtual time between the death and a survivor declaring
	// it — a distribution, because heartbeat loss on a flaky network
	// stretches individual detections past the timeout.
	DetectionLatencies []des.Time
	// FalseSuspicions counts heartbeat silences that crossed the
	// timeout for a peer that was in fact alive (loss-induced).
	FalseSuspicions int
	// LostIterations is the work rolled back across all failures: per
	// recovery, the distance from the iteration being recovered to the
	// restored line. Nested failures absorbed by one recovery are counted
	// once here but once each in FailureLog, so the sum of
	// FailureLog[].LostIterations can exceed this total.
	LostIterations int
	// Elapsed is the end-to-end virtual time; Ideal is the failure- and
	// checkpoint-free compute time, Iterations·ComputeTime, which leaves
	// communication out: a failure-free run's Elapsed exceeds Ideal by its
	// checkpoints and its ExchangeTime. Efficiency = Ideal/Elapsed.
	Elapsed, Ideal des.Time
	Efficiency     float64
	// Ledger partitions Elapsed by State: every instant of the run is
	// charged to the one state the supervisor was in, so the states sum
	// to Elapsed exactly, and Ledger[Compute] is
	// (Iterations+LostIterations)·ComputeTime plus ExchangeTime.
	Ledger [NumStates]des.Time
	// ExchangeTime is the halo exchange of every completed iteration,
	// rolled back ones included (Computation.Exchanged): a part of
	// Ledger[Compute].
	ExchangeTime des.Time
	// CheckpointVolumeMB is the total page payload persisted.
	CheckpointVolumeMB float64
	// CommitTime is a cost, not a slice of the ledger: the sum of every
	// committed line's commit pause (Young's per-line checkpoint cost,
	// summed), charged in full when the line is recorded. A crash inside
	// a plain stop-and-copy pause stops the team with the pause's rest
	// already in CommitTime, so it can overlap downtime.
	CommitTime des.Time
	// CommittedLines counts coordinated checkpoint lines the run
	// recorded as trustworthy (marker-committed under two-phase).
	CommittedLines int
	// WastedCheckpoints sums FailureEvent.WastedCheckpoints: committed
	// lines that rollback invalidated before they were ever restored.
	WastedCheckpoints int
	// FailureLog holds one lost-work record per injected failure, in
	// failure order.
	FailureLog []FailureEvent
	// Checksum of the final global interior, for external verification.
	Checksum float64
	// SpaceDigests holds, per rank, a digest of the final address
	// space's checkpointable regions (communication bounce buffers
	// excluded) — the bit-identity witness the replay validator
	// compares against a failure-free run.
	SpaceDigests []uint64
	// DrainRounds counts executions of the checkpoint-time RDMA drain
	// protocol; DrainPhaseTime is a view of the ledger (indexed by
	// mpi.DrainPhase): each phase's completed slices, the checkpoint
	// phase's being the rounds' Commit and Parity slices. DrainTimeouts
	// counts ranks the DrainInFlight deadline stranded into bounce-buffer
	// degradation.
	DrainRounds, DrainTimeouts int
	DrainPhaseTime             [mpi.NumDrainPhases]des.Time
	// DirectBypassBytes counts NIC bytes that landed via DMA without
	// tracker faults, summed over every team incarnation;
	// SilentDirtyBytes is the portion that hit protected pages — the
	// ground-truth IWS under-count. Under the drain protocol the silent
	// set is reconciled before every line; under naive Direct it is the
	// corruption the restore path inherits.
	DirectBypassBytes, SilentDirtyBytes uint64
	// CheckpointSilentBytes sums the per-checkpoint corruption risk
	// (ckpt.Result.SilentDirtyBytes) over every line the run cut — the
	// under-count actually baked into the stored chain. The drain
	// protocol reconciles the silent set before every line, holding
	// this at zero; naive Direct does not.
	CheckpointSilentBytes uint64
	// Multi-level checkpointing (Config.MultiLevel). DomainCrashes
	// counts correlated whole-domain failures the chaos plan injected;
	// ParityEncodeFailures, lines left without L2 protection because
	// the parity exchange failed; InjectedParityCorruptions, parity
	// shards the chaos schedule bit-flipped at rest.
	DomainCrashes, ParityEncodeFailures, InjectedParityCorruptions int
	// ParityVolumeMB is the parity payload exchanged between partners;
	// L2ExchangeTime is a cost, each encoded line's link time summed,
	// charged in full when the exchange starts: a crash inside it can
	// overlap downtime. Ledger[Parity] is the slice the exchanges took.
	ParityVolumeMB float64
	L2ExchangeTime des.Time
	// LevelReadBytes/LevelReadTime break every recovery's reads down by
	// tier (indexed by redundancy.LevelLocal/LevelParity/LevelGlobal) —
	// the per-level accounting the A21 ablation plots. A recovery reads
	// each chain segment of a candidate line once, so a recovery that
	// restores the newest line charges exactly that line's chain bytes;
	// a candidate abandoned at a damaged rank adds the prefix it read. A
	// recovery that never touches LevelGlobal restored entirely from
	// local chains and partner parity.
	LevelReadBytes [redundancy.LevelCount]uint64
	LevelReadTime  [redundancy.LevelCount]des.Time
	// ParityRebuilds counts segments reconstructed from surviving
	// shards; CorruptParityShards, shards the frame CRC rejected;
	// ParityRepairs, read-repair write-backs of rebuilt segments onto the
	// owner's L1.
	ParityRebuilds, CorruptParityShards, ParityRepairs uint64
	// Decay holds, per store a storage-decay line can strike (store i:
	// replica i, or the backend when Replicas is zero), the operations
	// it saw below the envelope and what its decay line did to them; nil
	// when the plan strikes no storage. Retry holds each replica's retry
	// counters (nil without hardening), and Mirror the mirror's
	// failovers, repairs and degraded writes over two or more replicas.
	Decay  []chaos.StoreStats
	Retry  []storage.RetryStats
	Mirror storage.MirrorStats
}

// team is one incarnation of the computation (between failures).
type team struct {
	// spaces are the ranks' address spaces; once the team is stopped,
	// the next recovery may replace them (ckpt.RestoreLatest).
	spaces []*mem.AddressSpace
	world  *mpi.World
	d      Computation
	cps    []*ckpt.Checkpointer
	co     *ckpt.Coordinator
	det    *cluster.Detector // nil unless HeartbeatPeriod > 0 and Ranks > 1

	regCost des.Time // NIC registration latency paid before iterating
}

// Supervisor drives a run to completion through failures.
type Supervisor struct {
	cfg   Config
	eng   *des.Engine
	chaos *chaos.Driver // nil when nothing fails
	store storage.Store
	// replicas are the hardened replicas (Config.Replicas), each a
	// *storage.ResilientStore, kept for their counters.
	replicas []storage.Store

	cur     *team
	lines   map[uint64]lineRecord // committed line seq → what it captured
	nextSeq uint64
	report  Report
	failed  error

	// Multi-level checkpointing state (nil/unused without
	// Config.MultiLevel). pendingVictims is the rank set a domain crash
	// preloaded for the next failure event.
	ml             *redundancy.Hierarchy
	pendingVictims []int

	// Failure/recovery state machine. Failures are re-armed from the
	// failure instant, so a second failure can land while detection or
	// recovery of the first is still in progress (nested failures).
	detecting       bool      // a heartbeat detection round is running
	pendingRecovery des.Event // the in-flight respawn, cancellable
	pendingFailIter int       // iteration count at the failure being recovered
	unrecovered     int       // failures absorbed since the last completed recovery
	storeDown       int       // consecutive recoveries deferred by an unavailable store

	// dead holds, per rank, the space whose slabs the next recovery
	// inherits (mem.AddressSpace.Inherit): the stopped team's, a
	// cancelled recovery's restored one, or an abandoned candidate
	// line's. nil while a team runs.
	dead []*mem.AddressSpace

	// trail is what the run digests into states (see trailKind).
	trail  trailKind
	states trail

	// state is the ledger's open slice, entered at since (see enter).
	state State
	since des.Time
}

// lineRecord is what the supervisor knows of a committed line: the
// iteration it captured, and whether a rollback already charged it as
// wasted to some failure.
type lineRecord struct {
	iter   int
	wasted bool
}

// Run executes the configured computation under supervision on a fresh
// engine, with the storage stack Store and Replicas describe and
// cfg.Faults compiled with cfg.Seed, and returns the report. The final
// checksum is filled in on success.
func Run(cfg Config) (*Report, error) {
	plan, err := cfg.plan(nil)
	if err != nil {
		return nil, err
	}
	rep, _, _, err := run(cfg, plan, nil, noTrail)
	return rep, err
}

// run is Run under a compiled plan (nil when nothing fails), driven by a
// chaos driver bound to the run's fresh engine: the Poisson failure
// clock, node crashes at planned instants, crashes aimed inside commit
// windows and drain phases, parity flips, the plan's interconnect
// faults, and storage faults on the stores the driver wraps. It returns
// the driver too (nil for none). The run writes through the stack
// cfg.Store and cfg.Replicas describe or, for a non-nil build
// (ValidateReplayStore's), through the store build returns; a plan
// whose storage lines strike a store build never wrapped is refused
// before anything runs, where its faults would silently vanish. kind
// selects the states the run digests into the trail it returns.
func run(cfg Config, plan *chaos.Plan, build func(*des.Engine, *chaos.Driver) storage.Store, kind trailKind) (*Report, trail, *chaos.Driver, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, nil, nil, err
	}
	if cfg.MultiLevel != nil {
		opts, err := cfg.MultiLevel.withDefaults(cfg.Ranks)
		if err != nil {
			return nil, nil, nil, err
		}
		cfg.MultiLevel = &opts
	}
	s := &Supervisor{cfg: cfg, eng: des.NewEngine(), lines: make(map[uint64]lineRecord), trail: kind}
	if plan != nil {
		s.chaos = chaos.NewDriver(s.eng, plan)
	}
	if build == nil {
		if err := s.buildStorage(); err != nil {
			return nil, nil, nil, err
		}
	} else if s.store = build(s.eng, s.chaos); !s.chaos.Wraps() {
		return nil, nil, nil, fmt.Errorf("autonomic: the plan's storage lines strike a store never wrapped with Driver.WrapStore (store i is the i-th wrapped)")
	}
	if cfg.MultiLevel != nil {
		if err := s.buildHierarchy(s.store); err != nil {
			return nil, nil, nil, err
		}
	}
	t, err := s.buildTeam(nil, 0)
	if err != nil {
		return nil, nil, nil, err
	}
	s.cur = t
	if kind == lineTrail {
		s.record(t, 0, -1)
	}
	s.startTeam()
	s.scheduleFailure()
	if s.chaos != nil {
		s.chaos.StartCrashes(s.onFailure)
	}
	s.eng.Run(des.MaxTime)
	if s.failed != nil {
		return nil, nil, nil, s.failed
	}
	s.closeLedger()
	// A copy, not &s.report: a held report must not keep the run's
	// engine, teams, address spaces and stores reachable.
	rep := s.report
	rep.Elapsed = s.eng.Now()
	rep.Ideal = des.Time(cfg.Iterations) * cfg.ComputeTime
	if rep.Elapsed > 0 {
		rep.Efficiency = rep.Ideal.Seconds() / rep.Elapsed.Seconds()
	}
	if s.chaos != nil && s.chaos.Plan().HitsStorage() {
		for i := range max(1, len(s.replicas)) {
			rep.Decay = append(rep.Decay, s.chaos.StoreStats(i))
		}
	}
	for _, r := range s.replicas {
		rep.Retry = append(rep.Retry, r.(*storage.ResilientStore).Stats())
	}
	if m, ok := s.store.(*storage.MirrorStore); ok {
		rep.Mirror = m.Stats()
	}
	return &rep, s.states, s.chaos, nil
}

// buildStorage builds the stack cfg.Store and cfg.Replicas describe (see
// Config.Replicas), keeping the hardening's counters for the report.
func (s *Supervisor) buildStorage() error {
	backend := func() storage.Store {
		b := s.cfg.Store
		if b == nil {
			b = storage.NewMemStore()
		}
		if s.chaos != nil && s.chaos.Plan().HitsStorage() {
			b = s.chaos.WrapStore(b)
		}
		return b
	}
	if s.cfg.Replicas == 0 {
		s.store = backend()
		return nil
	}
	s.replicas = make([]storage.Store, s.cfg.Replicas)
	for i := range s.replicas {
		s.replicas[i] = storage.NewResilientStore(storage.NewIntegrityStore(backend()), storage.DefaultRetryPolicy())
	}
	if s.store = s.replicas[0]; len(s.replicas) == 1 {
		return nil
	}
	m, err := storage.NewMirrorStore(s.replicas...)
	s.store = m
	return err
}

// buildTeam constructs a new world/solver/checkpointer incarnation.
// spaces is nil for a fresh start, or the restored address spaces after a
// failure; startIter is the iteration count the state corresponds to. A
// fresh start after a failure (a scratch restart) inherits the dead
// spaces' slabs, so its arenas, mapped where the dead team's were, make
// none.
func (s *Supervisor) buildTeam(spaces []*mem.AddressSpace, startIter int) (*team, error) {
	cfg := s.cfg
	fresh := spaces == nil
	if fresh {
		spaces = make([]*mem.AddressSpace, cfg.Ranks)
		for i := range spaces {
			spaces[i] = mem.NewAddressSpace(mem.Config{PageSize: 4096})
			if s.dead != nil {
				spaces[i].Inherit(s.dead[i])
			}
		}
	}
	mode := mpi.Bounce
	if cfg.RDMA != rdmaOff {
		mode = mpi.Direct
	}
	world, err := mpi.NewWorld(s.eng, mpi.QsNet(), mode, spaces)
	if err != nil {
		return nil, err
	}
	if s.chaos != nil && s.chaos.Plan().Net != nil {
		// The plan's interconnect: steady loss plus partition/brownout windows.
		if err := world.SetFaults(*s.chaos.Plan().Net); err != nil {
			return nil, err
		}
	}
	var d Computation
	if fresh {
		d, err = cfg.Workload.New(s.eng, world)
	} else {
		d, err = cfg.Workload.Attach(s.eng, world, startIter)
	}
	if err != nil {
		return nil, err
	}
	t := &team{spaces: spaces, world: world, d: d}
	if cfg.RDMA != rdmaOff {
		// The workload's arenas exist now; pin them with the NIC before
		// the team starts iterating.
		t.regCost = register(world)
	}
	for i := 0; i < cfg.Ranks; i++ {
		opts := ckpt.Options{
			Rank:     i,
			Store:    s.rankStore(i),
			Sink:     cfg.Sink,
			StartSeq: s.nextSeq,
		}
		if cfg.MultiLevel != nil {
			// Under multi-level the commit pause is a *local* device
			// write: ranks persist to their own L1 (NVMe), not the
			// shared sink.
			opts.Sink = storage.NVMeSink()
			opts.FullEvery = cfg.MultiLevel.FullEvery
		}
		c, err := ckpt.NewCheckpointer(s.eng, spaces[i], opts)
		if err != nil {
			return nil, err
		}
		if sb, ok := d.(SpecBound); ok && cfg.Spec != nil {
			for _, b := range cfg.Spec.Apply(sb.ProtectionBindings(i)) {
				// The restore recreated recomputable arenas zero-filled;
				// rebuild derivable contents before iterating resumes.
				if fresh || b.Recompute == nil {
					continue
				}
				if err := b.Recompute(); err != nil {
					return nil, fmt.Errorf("autonomic: recompute %s: %w", b.Name, err)
				}
			}
		}
		c.Start()
		t.cps = append(t.cps, c)
	}
	t.co, err = ckpt.NewCoordinator(s.eng, t.cps)
	if err != nil {
		return nil, err
	}
	if cfg.HeartbeatPeriod > 0 && cfg.Ranks > 1 {
		t.det, err = cluster.NewDetector(s.eng, world, cfg.HeartbeatPeriod)
		if err != nil {
			return nil, err
		}
		t.det.OnDeath = func(d cluster.Detection) { s.onDetected(t, d) }
		t.det.Start()
	}
	return t, nil
}

// startTeam begins (or resumes) iterating the current team. A
// registered-memory team first pays its NIC registration latency.
func (s *Supervisor) startTeam() {
	t := s.cur
	run := func() {
		s.enter(Compute)
		t.d.Run(s.cfg.Iterations, func(iter int, next func()) {
			s.enter(Compute) // an iteration boundary
			if iter%s.cfg.CkptEvery != 0 && iter != s.cfg.Iterations {
				next()
				return
			}
			// Quiescent point: coordinated checkpoint, then pause for the
			// stop-and-copy commit before resuming. A drain-mode RDMA team
			// wraps the commit in the drain/re-register protocol.
			if s.cfg.RDMA == RDMADrain {
				s.drainCheckpoint(t, iter, next)
				return
			}
			s.commitLine(t, iter, next)
		}, func() {
			s.finish(t)
		})
	}
	if t.regCost > 0 {
		s.enter(Registration)
		s.eng.After(t.regCost, func() {
			if s.live(t) {
				run()
			}
		})
		return
	}
	run()
}

// commitLine cuts one coordinated checkpoint line for team t at
// iteration iter and calls cont when the commit resolves. Every mode is a
// stage of one sequence: cut → bookkeeping (or refusal) → commit-window
// chaos → parity → resume. The only mode branch is how the coordinator
// cuts the line. A plain commit persists every rank now and pauses for
// the slowest sink write. Two-phase commit prepares now and commits when
// every rank's ack is in and the COMMIT marker is written. A refused line
// leaves the computation unharmed: cont still runs, the run just carries
// on without that line.
func (s *Supervisor) commitLine(t *team, iter int, cont func()) {
	s.enter(Commit)
	if s.trail == lineTrail {
		s.record(t, iter, -1)
	}
	if !s.cfg.TwoPhaseCommit {
		g, err := t.co.GlobalCheckpoint()
		if err != nil {
			s.lineRefused(t, err, cont)
			return
		}
		// Recorded at the cut: a failure inside the pause finds the line.
		s.lineDone(g, iter, g.MaxDuration)
		s.aimCommitCrashes(s.eng.Now() + g.MaxDuration)
		s.eng.After(g.MaxDuration, func() { s.protect(t, g.Seq, cont) })
		return
	}
	t.co.BeginTwoPhase(func(g ckpt.GlobalResult, err error) {
		if err != nil {
			s.lineRefused(t, err, cont)
			return
		}
		s.lineDone(g, iter, s.eng.Now()-g.At)
		s.protect(t, g.Seq, cont)
	})
	// A prepare the storage tier refused has already resolved: there is
	// no window left to aim at.
	if lastAck, open := t.co.PendingLastAck(); open {
		s.aimCommitCrashes(lastAck)
	}
}

// lineDone records a committed line: the sequence the next incarnation
// starts from, the iteration a recovery to it resumes at, and its cost.
func (s *Supervisor) lineDone(g ckpt.GlobalResult, iter int, pause des.Time) {
	s.nextSeq = g.Seq + 1
	s.lines[g.Seq] = lineRecord{iter: iter}
	s.report.CommittedLines++
	s.report.CheckpointVolumeMB += float64(g.TotalPageBytes) / 1e6
	s.report.CommitTime += pause
}

// lineRefused accounts a line that never committed — a storage refusal
// at the cut, or a two-phase round aborted after its prepare. While the
// team lives it realigns the checkpointers (ranks that persisted before
// the error are ahead of ranks after it, and consumed dirty sets force a
// full re-base) and resumes without the line; the cost shows up as extra
// rollback distance if a failure lands before the next line commits. An
// abort caused by a rank failure leaves the future to recovery.
func (s *Supervisor) lineRefused(t *team, err error, cont func()) {
	if errors.Is(err, ckpt.ErrCommitAborted) {
		s.report.AbortedCommits++
	} else {
		s.report.CheckpointFailures++
	}
	if !s.live(t) {
		return
	}
	s.nextSeq = t.co.Resync()
	s.resume(cont)
}

// aimCommitCrashes is the commit window's chaos hook. The window opens
// now and closes at end: the last prepare ack under two-phase commit
// (the earliest instant the COMMIT marker could exist), the end of the
// stop-and-copy pause otherwise (before the line's parity lands). A plan
// may aim a node crash or a whole failure domain strictly inside it.
func (s *Supervisor) aimCommitCrashes(end des.Time) {
	c, now := s.chaos, s.eng.Now()
	if c == nil {
		return
	}
	if delay, hit := c.CommitCrashDelay(now, end); hit {
		s.eng.After(delay, s.onFailure)
	}
	if name, delay, hit := c.DomainCrashDelay(now, end); hit {
		s.eng.After(delay, func() { s.domainCrash(name) })
	}
}

// protect is the commit's last stage: under multi-level it parity-
// protects the committed line (L2) and charges the exchange to the
// pause; otherwise the team resumes at once. Encode errors never hurt
// the run — the line simply carries no L2 protection.
func (s *Supervisor) protect(t *team, seq uint64, cont func()) {
	if !s.live(t) {
		return
	}
	if s.ml == nil {
		s.resume(cont)
		return
	}
	rep, err := s.ml.EncodeLine(seq)
	if err != nil {
		s.report.ParityEncodeFailures++
		s.resume(cont)
		return
	}
	s.enter(Parity)
	s.report.L2ExchangeTime += rep.Time
	s.report.ParityVolumeMB += float64(rep.ParityBytes) / 1e6
	if s.chaos != nil {
		if bits, hit := s.chaos.ParityFlipHit(s.eng.Now()); hit {
			if _, ok := s.ml.CorruptParity(seq, bits); ok {
				s.report.InjectedParityCorruptions++
			}
		}
	}
	s.eng.After(rep.Time, func() {
		if s.live(t) {
			s.resume(cont)
		}
	})
}

// live reports whether team t still owns the future: it is the current
// incarnation, no failure detection has stalled it, and the run has
// neither completed nor failed. Every continuation of the commit and
// drain sequences passes through it.
func (s *Supervisor) live(t *team) bool {
	return s.cur == t && !s.detecting && !s.report.Completed && s.failed == nil
}

// harvest folds the counters of a team that stopped — at a failure, or
// at completion, so once per team — into the report: its completed
// iterations' exchange time, and its NIC's and checkpointers' RDMA
// counters.
func (s *Supervisor) harvest(t *team) {
	s.report.ExchangeTime += t.d.Exchanged()
	for i := 0; i < t.world.Size(); i++ {
		st := t.world.Rank(i).Stats()
		s.report.DirectBypassBytes += st.DirectBypassBytes
		s.report.SilentDirtyBytes += st.SilentDirtyBytes
	}
	for _, c := range t.cps {
		s.report.CheckpointSilentBytes += c.Stats().SilentDirtyBytes
	}
}

// finish completes the run: gather the verification checksum.
func (s *Supervisor) finish(t *team) {
	s.harvest(t)
	s.endDetection(t)
	vals, err := t.d.Gather()
	if err != nil {
		s.fail(err)
		return
	}
	for _, v := range vals {
		s.report.Checksum += v
	}
	s.report.Completed = true
	s.report.Iterations = t.d.Iter()
	// Per-rank digests of the final process images, restricted to the
	// checkpoint contract: bounce arenas carry transient wire payloads
	// and stacks are excluded from checkpoints, so neither may vote on
	// replay equivalence.
	outside := func(r *mem.Region) bool { return !r.Kind().Checkpointable() }
	for _, c := range t.cps {
		s.report.SpaceDigests = append(s.report.SpaceDigests, c.Space().Digest(outside))
	}
	s.eng.Stop()
}

// scheduleFailure arms the plan's Poisson clock's next failure event.
func (s *Supervisor) scheduleFailure() {
	if s.chaos == nil {
		return
	}
	if delay, ok := s.chaos.NextFailure(); ok {
		s.eng.After(delay, s.onFailure)
	}
}

// onFailure kills a node. With the heartbeat detector off the
// supervisor observes the death instantly (the paper's idealised
// constant-overhead assumption) and schedules recovery directly; with it
// on, a random rank's tickers go silent and recovery waits for a
// survivor to declare the death. The next failure is re-armed from the
// failure instant, so failures can land during detection or recovery.
func (s *Supervisor) onFailure() {
	if s.report.Failures >= maxFailures {
		s.fail(fmt.Errorf("autonomic: exceeded %d failures", maxFailures))
		return
	}
	s.report.Failures++
	s.unrecovered++
	s.scheduleFailure()

	// Open the failure's lost-work record now; recovery completes it.
	// During detection or an in-flight respawn the computation is already
	// stopped, so the failure lands at the iteration being recovered.
	ev := FailureEvent{At: s.eng.Now(), Iter: s.pendingFailIter}
	if s.cur != nil && !s.detecting {
		ev.Iter = s.cur.d.Iter()
		_, ev.DuringCommit = s.cur.co.PendingSeq()
	}
	s.report.FailureLog = append(s.report.FailureLog, ev)

	// Resolve the victims now, wiping their L1 stores under multi-level
	// — the node-local device dies with the node, before any detection
	// or recovery gets to look at it.
	victims := s.takeVictims()
	if s.failed != nil {
		return
	}

	if s.detecting {
		// The job is already stalled waiting on the first death to be
		// detected; this failure takes more of the survivors.
		s.killAnother(s.cur, victims)
		return
	}
	if s.cur == nil {
		// Failure during recovery: the respawn under way is lost. Redo
		// select-and-restore against the (possibly further decayed)
		// store; the spawner itself observes this one, no detection
		// round needed.
		if s.pendingRecovery.Pending() {
			s.pendingRecovery.Cancel()
			s.pendingRecovery = des.Event{}
			s.scheduleRecovery(s.pendingFailIter)
		}
		return
	}

	t := s.cur
	s.pendingFailIter = t.d.Iter()
	s.state = Lost // the failure cut the open slice
	s.enter(Down)
	if t.det != nil {
		s.detecting = true
	} else {
		s.cur = nil
	}
	// A commit window open at the failure instant can never produce a
	// trusted line: the abort deletes the prepared segments and the
	// COMMIT marker is never written. The reason is only worth building
	// for a round that is open.
	if _, open := t.co.PendingSeq(); open {
		t.co.AbortPending(fmt.Errorf("rank failure at %v", s.eng.Now()))
	}
	// The computation is gone either way: the dead rank's halo partners
	// stall within an iteration, and the stall propagates.
	t.d.Stop()
	s.harvest(t)
	for _, c := range t.cps {
		c.Stop()
	}
	s.dead = t.spaces
	if t.det != nil {
		s.killAnother(t, victims)
		return // a survivor's timeout will fire onDetected
	}
	s.scheduleRecovery(s.pendingFailIter)
}

// killAnother silences the victims in t's heartbeat detector — the
// preset victim set of a domain crash under multi-level, otherwise one
// more live rank the plan's driver picks. Detection continues unless
// nobody is left alive to observe anything.
func (s *Supervisor) killAnother(t *team, victims []int) {
	if len(victims) == 0 {
		start := s.chaos.Victim(s.cfg.Ranks)
		for i := 0; i < s.cfg.Ranks; i++ {
			if v := (start + i) % s.cfg.Ranks; !t.det.Failed(v) {
				victims = []int{v}
				break
			}
		}
	}
	for _, v := range victims {
		if !t.det.Failed(v) && t.det.MarkFailed(v) == 0 {
			s.abandonDetection(t)
			return
		}
	}
}

// abandonDetection handles whole-partition loss: every rank is dead, so
// no survivor can declare anything. The spawner's own liveness timeout
// stands in for peer detection, at the detector's timeout cost.
func (s *Supervisor) abandonDetection(t *team) {
	s.endDetection(t)
	s.eng.After(cluster.HeartbeatTimeout(s.cfg.HeartbeatPeriod), func() {
		// A failure while the spawner waits changes no iteration: the
		// team is already stopped.
		if s.cur == nil && !s.pendingRecovery.Pending() {
			s.scheduleRecovery(s.pendingFailIter)
		}
	})
}

// endDetection stops team t's heartbeat detector, if it runs one, and
// counts its false suspicions. t no longer owns the future: a detection
// that ended hands it to recovery, a finished run to nobody. The ledger
// does not move: detection is part of Down, and completion ends the run.
func (s *Supervisor) endDetection(t *team) {
	s.detecting, s.cur = false, nil
	if t.det != nil {
		t.det.Stop()
		s.report.FalseSuspicions += t.det.FalseSuspicions()
	}
}

// onDetected runs when a surviving rank's heartbeat timeout declares the
// victim dead: record the measured detection latency and start recovery.
func (s *Supervisor) onDetected(t *team, d cluster.Detection) {
	if !s.detecting || s.cur != t {
		return
	}
	s.endDetection(t)
	s.report.DetectionLatencies = append(s.report.DetectionLatencies, d.Latency())
	s.scheduleRecovery(s.pendingFailIter)
}

// selection is what one recovery found: the restored spaces (nil for a
// scratch restart), the iteration they hold (0 for a scratch restart),
// whether they fell short of the store's claim, and the chain-read time.
type selection struct {
	spaces   []*mem.AddressSpace
	iter     int
	degraded bool
	readTime des.Time
}

// scheduleRecovery selects and restores the newest trustworthy line now
// (the store may decay further while the node respawns) and arms the
// respawn after the restart overhead plus the measured chain-read time.
// A store that is down defers the whole step by one restart overhead, as
// a respawn that found it down would, instead of aborting the run. The
// armed event is cancellable either way: a nested failure redoes it.
func (s *Supervisor) scheduleRecovery(failIter int) {
	s.pendingFailIter = failIter
	sel, err := s.selectAndRestore()
	if err != nil {
		if !errors.Is(err, storage.ErrUnavailable) || s.storeDown >= maxFailures {
			s.fail(err)
			return
		}
		s.storeDown++
		s.pendingRecovery = s.eng.After(s.cfg.RestartOverhead, func() {
			s.pendingRecovery = des.Event{}
			s.scheduleRecovery(failIter)
		})
		return
	}
	s.storeDown = 0
	s.pendingRecovery = s.eng.After(s.cfg.RestartOverhead+sel.readTime, func() {
		s.pendingRecovery = des.Event{}
		s.recover(sel, failIter)
	})
}

// selectAndRestore finds the newest recovery line the storage tier can
// prove — every rank's chain fetched, decoded, judged by VerifyChain and
// replayed — and restores it in one pass (ckpt.RestoreLatest), reading
// each chain once, into the slabs of the spaces the recovery replaces
// (s.dead). The restored spaces then hold those slabs: they are what a
// nested failure's redo inherits, and a scratch restart inherits what
// the abandoned candidates left in s.dead. Payload bytes are only as
// trustworthy as the store stack: an IntegrityStore catches flipped
// bits, a raw or L1 store does not. It reads through one store: the global store, or the
// hierarchy's tiered view under multi-level (L1, then an L2 parity
// rebuild, then L3, with the view's per-level accounting folded into the
// report). When no line survives the selection is a scratch restart.
func (s *Supervisor) selectAndRestore() (selection, error) {
	src := s.store
	var view *redundancy.RecoveryView
	if s.ml != nil {
		view = s.ml.NewView()
		src = view
		defer s.foldViewStats(view)
	}
	// The claim is what the store advertises before any data is touched;
	// a recovery is degraded when the line it restores falls short of it.
	best, claimed, err := ckpt.LatestClaimedSeq(src, s.cfg.Ranks, s.cfg.TwoPhaseCommit)
	if err != nil {
		return selection{}, err
	}
	rec, ok, err := ckpt.RestoreLatest(src, s.cfg.Ranks, s.cfg.TwoPhaseCommit, s.dead)
	if err != nil {
		return selection{}, err
	}
	sel := selection{spaces: rec.Spaces, degraded: claimed && (!ok || rec.Seq < best)}
	// The read price is the one place the tier shows: the global store
	// prices the restored chains at the sink (read ≈ write bandwidth),
	// the view the bytes each level served.
	if ok {
		s.dead = rec.Spaces
		sel.iter = s.lines[rec.Seq].iter
		sel.readTime = s.cfg.Sink.WriteTime(rec.Bytes)
		if view != nil {
			sel.readTime = s.tierReadTime(view.Stats())
		}
	}
	return sel, nil
}

// recover rebuilds the team around the selected line (a scratch restart
// when no verifiable checkpoint survived).
func (s *Supervisor) recover(sel selection, failIter int) {
	startIter := sel.iter
	s.report.LostIterations += failIter - startIter
	s.closeFailureRecords(startIter)
	t, err := s.buildTeam(sel.spaces, startIter)
	if err != nil {
		s.fail(err)
		return
	}
	s.cur, s.dead = t, nil
	if s.trail == restoreTrail {
		s.record(t, startIter, len(s.report.FailureLog)-1)
	}
	// One completed recovery covers every failure absorbed since the
	// last one (nested failures redo the same recovery), so on success
	// Recoveries == Failures still holds.
	s.report.Recoveries += s.unrecovered
	s.unrecovered = 0
	if sel.degraded {
		s.report.DegradedRecoveries++
	}
	s.startTeam()
}

// closeFailureRecords completes the lost-work record of every failure
// this recovery absorbs (the last s.unrecovered FailureLog entries):
// where recovery landed, what each failure cost, and — once per batch —
// how many committed lines the rollback wasted. A line is wasted when it
// captured an iteration past the restored point: its commit was paid but
// recovery could not (or will never) use it. Each seq is charged to at
// most one failure, and replayed work commits fresh seqs, so re-taken
// lines are never double-counted.
func (s *Supervisor) closeFailureRecords(startIter int) {
	wasted := 0
	for seq, l := range s.lines {
		if l.iter > startIter && !l.wasted {
			s.lines[seq] = lineRecord{iter: l.iter, wasted: true}
			wasted++
		}
	}
	s.report.WastedCheckpoints += wasted
	n := len(s.report.FailureLog)
	batch := min(s.unrecovered, n)
	for i := n - batch; i < n; i++ {
		ev := &s.report.FailureLog[i]
		ev.RestoredIter = startIter
		ev.LostIterations = ev.Iter - startIter
		ev.Downtime = s.eng.Now() - ev.At
		if i == n-batch {
			ev.WastedCheckpoints = wasted
		}
	}
}

func (s *Supervisor) fail(err error) {
	s.failed = err
	s.eng.Stop()
}
