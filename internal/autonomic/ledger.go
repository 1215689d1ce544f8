package autonomic

// The time ledger: where a supervised run's virtual time went. The
// supervisor is in exactly one State at every instant, and one clock —
// the state it is in and the instant it entered it — charges each slice
// to the state being left (Supervisor.enter), so Report.Ledger
// partitions Elapsed with no remainder. Costs are a different kind of
// quantity: CommitTime and L2ExchangeTime sum each line's price, charged
// in full when it starts, and FailureEvent.Downtime is one failure's
// span; none of them is a slice of the ledger.

import "repro/internal/mpi"

// State is what a supervised run is doing: Report.Ledger's index.
type State uint8

const (
	// Compute is iterating: every completed iteration's exchange
	// (Report.ExchangeTime) and compute time.
	Compute State = iota
	// Registration is a team pinning its memory with the NIC before it
	// iterates (Config.RDMA).
	Registration
	// Commit is a line's commit pause: a plain cut's stop-and-copy, or a
	// two-phase round from prepare to resolve, refused rounds included.
	Commit
	// Parity is a committed line's L2 parity exchange (Config.MultiLevel).
	Parity
	// Quiesce, DrainInFlight, Deregister, Reregister and Reconnect are
	// the drain protocol's phases (mpi.DrainPhase) bar its checkpoint
	// phase, which is the round's Commit and Parity.
	Quiesce
	DrainInFlight
	Deregister
	Reregister
	Reconnect
	// Down runs from the failure that stops a live team until the
	// rebuilt team resumes: detection, the spawner's timeout, deferrals
	// while the store is out, restart overhead and chain read. A failure
	// while down changes no state, so nested failures' downtime is their
	// union, counted once.
	Down
	// Lost is what a failure cut: the slice open when it stopped a live
	// team, since the last iteration boundary or state entry.
	Lost
	// NumStates sizes Report.Ledger.
	NumStates
)

var stateNames = [NumStates]string{"compute", "registration", "commit", "parity", "quiesce", "drain", "deregister", "reregister", "reconnect", "down", "lost"}

// String names the state, in lower case.
func (st State) String() string { return stateNames[st] }

// drainStates is the state of each drain phase.
var drainStates = [mpi.NumDrainPhases]State{Quiesce, DrainInFlight, Deregister, Commit, Reregister, Reconnect}

// enter closes the open slice, charging it to the state being left, and
// opens one of st. It is the one place the ledger gains time.
func (s *Supervisor) enter(st State) {
	now := s.eng.Now()
	s.report.Ledger[s.state] += now - s.since
	s.state, s.since = st, now
}

// resume ends a commit sequence: the team computes again, and cont
// continues it. Under the drain protocol cont steps the round into its
// next phase at once, so the compute slice opened here closes empty.
func (s *Supervisor) resume(cont func()) {
	s.enter(Compute)
	cont()
}

// closeLedger charges the slice still open when the run ends and fills
// the report's view of the ledger: the drain phases' time.
func (s *Supervisor) closeLedger() {
	s.enter(s.state)
	if s.cfg.RDMA != RDMADrain {
		return
	}
	r := &s.report
	for p, st := range drainStates {
		r.DrainPhaseTime[p] = r.Ledger[st]
	}
	r.DrainPhaseTime[mpi.PhaseCheckpoint] += r.Ledger[Parity]
}
