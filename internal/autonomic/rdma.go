// RDMA direct-write checkpointing: registered memory regions, the silent
// IWS under-count they cause, and the crash-safe checkpoint-time drain
// protocol that closes it.
//
// The paper's §4.2 observation is that an OS-bypass NIC writing into
// application memory defeats mprotect-based write tracking: DMA stores
// raise no faults, so the incremental working set silently under-counts
// and incremental checkpoints omit NIC-written pages. The supervisor can
// run its world in that regime (RDMAOptions.Mode = RDMANaive) and
// *measure* the resulting corruption risk, or run the drain protocol
// (RDMADrain, the default): at every checkpoint boundary a six-phase
// state machine quiesces traffic, drains in-flight one-sided writes,
// deregisters the NIC regions — replaying every suppressed write fault
// so the tracker sees the true dirty set — cuts the line, re-registers,
// and reconnects. A rank whose in-flight traffic refuses to drain within
// the timeout is degraded to bounce-buffer delivery instead of
// checkpointing a torn region.
package autonomic

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/kernels"
	"repro/internal/mpi"
)

// RDMAMode selects how the supervisor checkpoints a registered-memory
// world.
type RDMAMode uint8

const (
	// RDMADrain (the default) runs the drain/re-register protocol at
	// every checkpoint boundary, so incremental lines capture the true
	// dirty set.
	RDMADrain RDMAMode = iota
	// RDMANaive checkpoints without draining: DMA-written pages stay
	// silent and incremental lines under-count — the failure mode the
	// report's SilentDirtyBytes quantifies and restores corrupt.
	RDMANaive
)

// String names the mode.
func (m RDMAMode) String() string {
	switch m {
	case RDMADrain:
		return "drain"
	case RDMANaive:
		return "naive"
	default:
		return fmt.Sprintf("autonomic.RDMAMode(%d)", m)
	}
}

// RDMAOptions puts the supervised world in Direct (OS-bypass) delivery
// mode with registered memory regions.
type RDMAOptions struct {
	// Mode picks naive Direct checkpointing or the drain protocol.
	Mode RDMAMode
}

// drainTimeout bounds the DrainInFlight phase; ranks still awaiting
// traffic when it expires are degraded to bounce-buffer delivery.
const drainTimeout = 10 * des.Millisecond

// PutFactory supervises the one-sided-Put ring (kernels.DistPut): the
// workload whose windows are only ever NIC-written, making the silent
// under-count fatal to naive Direct restores.
type PutFactory struct {
	// Pages is the per-buffer page count (0 → 1).
	Pages int
	// PutEvery injects the ring's one-sided writes every N iterations
	// (0 → 1).
	PutEvery int
	// Seed parameterises the initial windows.
	Seed float64
	// ComputeTime is the virtual cost of one sweep (0 → 100ms).
	ComputeTime des.Time
}

func (f PutFactory) withDefaults() PutFactory {
	if f.Pages == 0 {
		f.Pages = 1
	}
	if f.PutEvery == 0 {
		f.PutEvery = 1
	}
	if f.ComputeTime == 0 {
		f.ComputeTime = 100 * des.Millisecond
	}
	return f
}

// New implements Factory.
func (f PutFactory) New(eng *des.Engine, world *mpi.World) (Computation, error) {
	f = f.withDefaults()
	return kernels.NewDistPut(eng, world, f.Pages, f.PutEvery, f.Seed, f.ComputeTime)
}

// Attach implements Factory.
func (f PutFactory) Attach(eng *des.Engine, world *mpi.World, iter int) (Computation, error) {
	f = f.withDefaults()
	return kernels.AttachDistPut(eng, world, f.Pages, f.PutEvery, f.Seed, f.ComputeTime, iter)
}

// register pins every rank's checkpointable regions with the NIC and
// returns the latency the team waits for: ranks register in parallel, so
// the slowest one's. Degraded ranks stay on the bounce path — their NIC
// never re-pins, so no new silent writes can land — and a team with
// nothing left to register pays nothing.
func register(w *mpi.World) des.Time {
	var maxPages uint64
	registered := false
	for i := 0; i < w.Size(); i++ {
		if r := w.Rank(i); !r.Degraded() {
			maxPages = max(maxPages, r.RegisterAllData())
			registered = true
		}
	}
	if !registered {
		return 0
	}
	return w.RegisterCost(maxPages)
}

// harvestRDMA folds a dying (or finishing) team's NIC counters into the
// report. Idempotent per team: a nested failure must not double-count.
func (s *Supervisor) harvestRDMA(t *team) {
	if s.cfg.RDMA == nil || t == nil || t.harvested {
		return
	}
	t.harvested = true
	for i := 0; i < t.world.Size(); i++ {
		st := t.world.Rank(i).Stats()
		s.report.DirectBypassBytes += st.DirectBypassBytes
		s.report.SilentDirtyBytes += st.SilentDirtyBytes
	}
	for _, c := range t.cps {
		s.report.CheckpointSilentBytes += c.Stats().SilentDirtyBytes
	}
}

// drainCheckpoint runs the checkpoint-time drain protocol for team t at
// iteration iter, then resumes the computation via next. The six phases
// run strictly in order on the des clock, each accounted separately:
//
//	Quiesce → DrainInFlight → Deregister → Checkpoint → Reregister → Reconnect
//
// Every phase ends in the same step (see drainRound.step): the liveness
// guard, the phase's charge, and the chaos hook (crash-during-drain) at
// the next phase's entry, so a node crash mid-protocol abandons the
// round cleanly and the recovery path owns the future. A DrainInFlight
// timeout degrades the stranded ranks to bounce-buffer delivery — the
// checkpoint proceeds over a consistent (reconciled) image rather than
// a torn region.
func (s *Supervisor) drainCheckpoint(t *team, iter int, next func()) {
	s.report.DrainRounds++
	d := &drainRound{s: s, t: t, iter: iter, next: next, phaseStart: s.eng.Now()}
	if d.enter(mpi.PhaseQuiesce) {
		s.eng.After(mpi.RDMAQuiesceDelay, d.quiesced)
	}
}

// drainRound is one drain protocol round in flight.
type drainRound struct {
	s          *Supervisor
	t          *team
	iter       int
	next       func()
	phaseStart des.Time
}

// enter fires the chaos plan's crash-during-drain faults: entering a
// targeted phase kills a node on the spot, the adversarial instant for
// this protocol. It reports whether the round survived.
func (d *drainRound) enter(p mpi.DrainPhase) bool {
	if c := d.s.cfg.Chaos; c != nil && c.DrainCrashHit(p, d.s.eng.Now()) {
		d.s.onFailure()
		return false
	}
	return true
}

// step ends phase p: guard the team's liveness, charge the phase's time,
// and enter the next phase. It reports whether the round continues.
func (d *drainRound) step(p mpi.DrainPhase) bool {
	s := d.s
	if !s.live(d.t) {
		return false
	}
	now := s.eng.Now()
	s.report.DrainPhaseTime[p] += now - d.phaseStart
	d.phaseStart = now
	return int(p)+1 == mpi.NumDrainPhases || d.enter(p+1)
}

func (d *drainRound) quiesced() {
	if d.step(mpi.PhaseQuiesce) {
		d.t.world.AwaitDrain(drainTimeout, d.drained)
	}
}

func (d *drainRound) drained(stranded []int) {
	s, w := d.s, d.t.world
	if s.live(d.t) {
		for _, i := range stranded {
			w.Rank(i).DegradeToBounce()
			s.report.DrainTimeouts++
		}
	}
	if !d.step(mpi.PhaseDrainInFlight) {
		return
	}
	// Deregistration replays every suppressed write fault, so the
	// checkpointers' dirty sets are ground truth before the line is cut.
	// Ranks deregister in parallel; wait for the slowest.
	var maxPages uint64
	for i := 0; i < w.Size(); i++ {
		pages, _ := w.Rank(i).DeregisterAll()
		maxPages = max(maxPages, pages)
	}
	s.eng.After(w.RegisterCost(maxPages), d.deregistered)
}

func (d *drainRound) deregistered() {
	if d.step(mpi.PhaseDeregister) {
		d.s.commitLine(d.t, d.iter, d.committed)
	}
}

func (d *drainRound) committed() {
	if d.step(mpi.PhaseCheckpoint) {
		d.s.eng.After(register(d.t.world), d.reregistered)
	}
}

func (d *drainRound) reregistered() {
	if d.step(mpi.PhaseReregister) {
		d.s.eng.After(mpi.RDMAReconnectLatency, d.reconnected)
	}
}

func (d *drainRound) reconnected() {
	if d.step(mpi.PhaseReconnect) {
		d.next()
	}
}
