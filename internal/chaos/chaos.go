// Package chaos is a deterministic, seed-driven fault-schedule engine.
//
// Every failure a supervised run suffers is a line of one schedule
// language: the supervisor's Poisson node-failure clock, the
// interconnect's steady loss, duplication and jitter, node crashes,
// crashes aimed inside checkpoint commit windows, crashes at RDMA
// drain-protocol phase entries, network partitions and brownouts,
// storage outages and brownouts, each store's whole-run decay (dropped
// requests, torn writes, rot, death), silent bit-flips of stored
// checkpoint payloads and of freshly placed parity shards — so "crash while the
// network is partitioned and the sink is browning out" is one piece of
// data, reproducible bit for bit. Each spec has a virtual-time window, an
// optional correlation group, and seeded jitter. Compile resolves the
// schedule against one seed into a Plan of concrete virtual-time
// events, and a Driver binds the plan to a des.Engine and drives the
// existing injectors through one interface. A run names its faults as
// text (autonomic.Config.Faults), and the run's storage stack is part of
// the same config value (autonomic.Config.Replicas); the replay
// validator in internal/autonomic runs both:
//
//	cfg.Faults, cfg.Replicas = text, 2
//	out, _ := autonomic.ValidateReplay(cfg)
//
// The supervisor compiles the plan with the run's seed, refuses faults
// the config has no instant or store for, and wires the run:
//
//	sched, _ := chaos.ParseSchedule(cfg.Faults)
//	plan, _ := sched.Compile(cfg.Seed)
//	eng := des.NewEngine()
//	drv := chaos.NewDriver(eng, plan)
//	backend := drv.WrapStore(storage.NewMemStore()) // store i: replica i's backend; store 0 also takes the timed outages, brownouts, bit-flips
//	world.SetFaults(*plan.Net)                      // steady loss plus partition/brownout windows
//	drv.StartCrashes(killNode)
//
// Same schedule, same seed → the same faults at the same virtual
// instants, every run. That determinism is what makes the
// crash–restore–replay equivalence validation in internal/autonomic
// possible: a failure-free reference run and a chaos run of the same
// seed are comparable bit for bit.
package chaos

import (
	"fmt"
	"slices"

	"repro/internal/des"
	"repro/internal/mpi"
)

// Kind enumerates the fault classes a Spec can inject.
type Kind uint8

const (
	// Crash kills a node at a seeded instant inside the window.
	Crash Kind = iota
	// CommitCrash kills a node inside a checkpoint commit window that
	// opens during the spec's window: between prepare and the
	// COMMIT-marker write under two-phase commit, inside the
	// stop-and-copy pause otherwise. Each Count consumes one commit round.
	CommitCrash
	// Partition severs the whole fabric for the window: severe packet
	// loss on every link (clamped by the mpi layer's loss cap, so ARQ
	// traffic crawls through rather than deadlocking the simulation).
	Partition
	// Brownout degrades the fabric for the window: extra loss and a
	// transfer-time slowdown — a congested or flapping switch.
	Brownout
	// StorageOutage makes stable storage refuse every operation during
	// the window (storage.ErrUnavailable).
	StorageOutage
	// StorageBrownout makes stable storage drop a seeded fraction of
	// operations during the window (storage.ErrTransient).
	StorageBrownout
	// BitFlip silently flips one seeded bit of one stored checkpoint
	// payload at a seeded instant inside the window — at-rest corruption
	// below any integrity envelope, detectable only on read-back.
	BitFlip
	// DrainCrash kills a node the moment the RDMA checkpoint-drain
	// protocol enters a named phase (quiesce, drain, deregister,
	// checkpoint, reregister, reconnect) inside the spec's window. Each
	// Count consumes one drain round — the adversarial instants for the
	// drain/re-register state machine.
	DrainCrash
	// DomainCrash kills every rank of a named failure domain mid-commit:
	// the first checkpoint-commit pause that opens inside the spec's
	// window draws a seeded kill instant inside the pause, before the
	// line's parity shards finish placing — the correlated loss a
	// multi-level hierarchy's domain-disjoint placement must absorb.
	// Each Count consumes one commit round.
	DomainCrash
	// PoissonCrash is the supervisor's failure clock: node crashes at
	// exponentially distributed intervals of mean Mean, re-armed from
	// each failure instant, drawn from the supervisor's own failure
	// stream rather than at compile time.
	PoissonCrash
	// Net is the interconnect's steady whole-run fault model: per-packet
	// loss Drop, duplication Dup and delay jitter up to Jitter, drawn
	// from a packet stream seeded by Seed. Partition and brownout
	// windows compose with it.
	Net
	// ParityFlip bit-flips the parity shard of a line right after the
	// multi-level hierarchy placed it, for a line whose parity is placed
	// inside the spec's window. Each Count consumes one line.
	ParityFlip
	// StorageDecay is one wrapped store's whole-run decay: each
	// operation may fail transiently (Transient), a Put may persist only
	// half its bytes and report success (Torn) or persist a copy with
	// one bit flipped (Corrupt), and after DieAfter operations the store
	// refuses everything for good (storage.ErrUnavailable) — a dead
	// device or a lost diskless partner. Its draws come from its own
	// stream, seeded by Seed; Store names which wrapped store it strikes.
	StorageDecay
	// kindCount bounds the valid kinds.
	kindCount
)

// kindNames spells each kind the way the schedule language does.
var kindNames = [kindCount]string{
	Crash:           "crash",
	CommitCrash:     "commit-crash",
	Partition:       "partition",
	Brownout:        "brownout",
	StorageOutage:   "storage-outage",
	StorageBrownout: "storage-brownout",
	BitFlip:         "bitflip",
	DrainCrash:      "crash-during-drain",
	DomainCrash:     "domain-crash",
	PoissonCrash:    "crash every",
	Net:             "net",
	ParityFlip:      "parity-flip",
	StorageDecay:    "storage-decay",
}

// String names the kind the way the schedule language spells it.
func (k Kind) String() string {
	if k < kindCount {
		return kindNames[k]
	}
	return fmt.Sprintf("chaos.Kind(%d)", k)
}

// Spec is one declarative fault: a kind, a virtual-time window it lands
// in, and knobs whose meaning depends on the kind. ParseSchedule fills
// in each kind's defaults before it reads a line's options; Compile
// takes Drop, Slow and Rate as written.
type Spec struct {
	Kind Kind
	// From and To bound the fault's virtual-time window. Instant kinds
	// (Crash, BitFlip) draw their instants inside [From, To]; window
	// kinds (Partition, Brownout, StorageOutage, StorageBrownout) are
	// active over [From+shift, To+shift) where shift is the seeded
	// jitter draw; CommitCrash consumes commit rounds that open inside
	// [From, To).
	From, To des.Time
	// Jitter adds a uniform seeded offset in [0, Jitter) to each drawn
	// instant (instant kinds) or shifts the whole window (window kinds).
	// On a Net line it bounds each packet's delay jitter instead.
	Jitter des.Time
	// Count is the number of events drawn for instant kinds and the
	// number of commit rounds a CommitCrash consumes (0 → 1). Window
	// kinds ignore it.
	Count int
	// Group names a correlation group: specs sharing a group share one
	// seeded base draw, so their events land at the same fractional
	// position of their windows — correlated, bursty failures (stdchk's
	// adversary) instead of independent ones.
	Group string
	// Drop is the extra packet-loss probability of Partition (parsed
	// default 0.85) and Brownout (parsed default 0.2) windows, and a Net
	// line's steady loss.
	Drop float64
	// Dup is a Net line's packet-duplication probability.
	Dup float64
	// Slow is Brownout's transfer-time multiplier (parsed default 2;
	// zero, like one, does not slow).
	Slow float64
	// Rate is StorageBrownout's per-operation drop probability (parsed
	// default 0.5).
	Rate float64
	// Phase is the drain-protocol phase token a DrainCrash targets
	// (one of mpi's drain phase names, e.g. "deregister").
	Phase string
	// Domain names the failure domain a DomainCrash kills (a domain
	// name from the run's cluster.DomainMap, e.g. "d1").
	Domain string
	// Mean is a PoissonCrash's mean time between failures.
	Mean des.Time
	// Seed seeds a Net line's packet stream; zero derives it from the
	// compile seed, as a plan holding only windows does. A StorageDecay
	// line's stream is PCG(Seed, 0xFA17), zero included.
	Seed uint64
	// Transient, Torn and Corrupt are a StorageDecay line's
	// per-operation probabilities in [0, 1]: a transient refusal of a
	// Put, Get or Delete, and a torn or bit-flipped Put.
	Transient, Torn, Corrupt float64
	// DieAfter, when positive, kills a StorageDecay line's store for
	// good after that many operations.
	DieAfter int
	// Store is the index of the wrapped store a StorageDecay line
	// strikes: the i-th Driver.WrapStore call's. The timed storage kinds
	// always strike store 0.
	Store int
}

// Schedule is a declarative list of fault specs — the unit that parses,
// validates and compiles.
type Schedule struct {
	Specs []Spec
}

// Validate checks every spec for structural sanity and reports the first
// violation. A valid schedule always compiles.
func (s *Schedule) Validate() error {
	if s == nil {
		return fmt.Errorf("chaos: nil schedule")
	}
	var seen [kindCount]bool
	for i, sp := range s.Specs {
		// Named only on error: every Run with Faults validates its lines.
		spec := func() string { return fmt.Sprintf("chaos: spec %d (%s)", i, sp.Kind) }
		switch {
		case sp.Kind >= kindCount:
			return fmt.Errorf("chaos: spec %d: unknown kind %d", i, sp.Kind)
		case sp.From < 0 || sp.To < sp.From:
			return fmt.Errorf("%s: window [%v, %v] is not ordered and non-negative", spec(), sp.From, sp.To)
		case sp.Jitter < 0:
			return fmt.Errorf("%s: negative jitter %v", spec(), sp.Jitter)
		case sp.Count < 0:
			return fmt.Errorf("%s: negative count %d", spec(), sp.Count)
		case sp.Count > maxEventsPerSpec:
			return fmt.Errorf("%s: count %d exceeds the per-spec cap %d", spec(), sp.Count, maxEventsPerSpec)
		case !(sp.Drop >= 0 && sp.Drop < 1): // also rejects NaN
			return fmt.Errorf("%s: drop %v out of [0, 1)", spec(), sp.Drop)
		case !(sp.Rate >= 0 && sp.Rate < 1):
			return fmt.Errorf("%s: rate %v out of [0, 1)", spec(), sp.Rate)
		case !(sp.Dup >= 0 && sp.Dup < 1):
			return fmt.Errorf("%s: dup %v out of [0, 1)", spec(), sp.Dup)
		case !(sp.Slow >= 0) || sp.Slow > maxSlowFactor:
			return fmt.Errorf("%s: slow factor %v out of [0, %v]", spec(), sp.Slow, float64(maxSlowFactor))
		case sp.Kind >= PoissonCrash && (sp.Group != "" || sp.Kind != Net && sp.Jitter != 0):
			// The supervisor's, the fabric's, the hierarchy's and the
			// stores' own streams draw the last four kinds; compiling
			// them draws nothing.
			return fmt.Errorf("%s: draws nothing at compile time, so takes no group or jitter", spec())
		case sp.Store != 0 && sp.Kind != StorageDecay:
			return fmt.Errorf("%s: only a storage-decay line names a store (timed storage lines strike store 0)", spec())
		case (sp.Kind == PoissonCrash || sp.Kind == Net) && seen[sp.Kind]:
			return fmt.Errorf("%s: a schedule holds at most one", spec())
		}
		seen[sp.Kind] = true
		switch sp.Kind {
		case PoissonCrash:
			if sp.Mean <= 0 {
				return fmt.Errorf("%s: mean %v is not positive", spec(), sp.Mean)
			}
		case Net:
			if sp.Drop == 0 && sp.Dup == 0 && sp.Jitter == 0 {
				return fmt.Errorf("%s: degrades nothing (want loss, dup or jitter)", spec())
			}
		case StorageDecay:
			switch {
			case sp.Count != 0:
				return fmt.Errorf("%s: is one whole-run line, so takes no count", spec())
			case !isUnit(sp.Transient) || !isUnit(sp.Torn) || !isUnit(sp.Corrupt):
				return fmt.Errorf("%s: rates transient %v, torn %v, corrupt %v not all in [0, 1]", spec(), sp.Transient, sp.Torn, sp.Corrupt)
			case sp.DieAfter < 0:
				return fmt.Errorf("%s: negative die-after %d", spec(), sp.DieAfter)
			case sp.Store < 0:
				return fmt.Errorf("%s: negative store %d", spec(), sp.Store)
			case sp.Transient == 0 && sp.Torn == 0 && sp.Corrupt == 0 && sp.DieAfter == 0:
				return fmt.Errorf("%s: degrades nothing (want transient, torn, corrupt or die-after)", spec())
			case slices.ContainsFunc(s.Specs[:i], func(o Spec) bool { return o.Kind == StorageDecay && o.Store == sp.Store }):
				return fmt.Errorf("%s: store %d already decays (one decay line per store)", spec(), sp.Store)
			}
		case Partition, Brownout, StorageOutage, StorageBrownout, ParityFlip:
			if sp.To == sp.From {
				return fmt.Errorf("%s: window kinds need a non-empty window", spec())
			}
		case DrainCrash:
			if _, err := mpi.ParseDrainPhase(sp.Phase); err != nil {
				return fmt.Errorf("%s: %w", spec(), err)
			}
		case DomainCrash:
			if sp.To == sp.From {
				return fmt.Errorf("%s: needs a non-empty window to catch a commit round", spec())
			}
			if sp.Domain == "" {
				return fmt.Errorf("%s: needs a domain name (domain <name>)", spec())
			}
		}
	}
	return nil
}

// isUnit reports whether p is a probability in [0, 1]; NaN is not.
func isUnit(p float64) bool { return p >= 0 && p <= 1 }

// maxEventsPerSpec bounds Count so a hostile schedule cannot compile
// into an event flood.
const maxEventsPerSpec = 1024

// maxSlowFactor bounds Brownout's transfer-time multiplier: a slowdown
// beyond this effectively freezes the simulation's traffic.
const maxSlowFactor = 1024
