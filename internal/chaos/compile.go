package chaos

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"

	"repro/internal/des"
	"repro/internal/mpi"
)

// Window is a half-open virtual-time interval [From, To).
type Window struct {
	From, To des.Time
}

// contains reports whether at falls inside the window.
func (w Window) contains(at des.Time) bool { return at >= w.From && at < w.To }

// BrownoutWindow is a storage brownout: during the window a seeded
// fraction Rate of operations fail transiently.
type BrownoutWindow struct {
	Window
	Rate float64
}

// DrainCrashWindow is a drain-protocol kill: the first time the drain
// state machine enters Phase inside the window, the node dies.
type DrainCrashWindow struct {
	Window
	Phase mpi.DrainPhase
}

// DomainCrashWindow is a correlated kill: the first checkpoint-commit
// pause opening inside the window takes every rank of the named failure
// domain with it, at a seeded instant inside the pause.
type DomainCrashWindow struct {
	Window
	Domain string
}

// Plan is a compiled schedule: every seeded draw resolved against one
// seed, leaving only concrete virtual-time events and windows. Plans are
// immutable once compiled; a Driver consumes one.
type Plan struct {
	// Seed is the seed the schedule was compiled with; the Driver
	// derives its own streams (bit selection, commit-crash placement,
	// brownout rolls) from it.
	Seed uint64
	// Crashes are node-kill instants, ascending.
	Crashes []des.Time
	// CommitCrashes are windows inside which checkpoint commit rounds are
	// killed mid-commit, one round per entry.
	CommitCrashes []Window
	// Net is the run's interconnect fault model in mpi's native form: the
	// net line's steady loss, duplication and jitter, with the
	// partition/brownout windows in spec order. Its packet stream is
	// seeded by the net line's seed, else by Seed^0x9E77. Nil when the
	// schedule degrades no link: a clean network stays bit-for-bit clean.
	Net *mpi.NetFaultConfig
	// CrashMean is the mean of the supervisor's Poisson failure clock
	// (zero: no clock).
	CrashMean des.Time
	// ParityFlips are windows inside which a line's freshly placed parity
	// is bit-flipped, one line per entry.
	ParityFlips []Window
	// Outages are storage dead-air windows (every operation refused).
	Outages []Window
	// Brownouts are storage degradation windows (seeded fractional drop).
	Brownouts []BrownoutWindow
	// BitFlips are at-rest corruption instants, ascending.
	BitFlips []des.Time
	// DrainCrashes are windows inside which RDMA drain rounds are killed
	// at a named phase's entry, one round per entry.
	DrainCrashes []DrainCrashWindow
	// DomainCrashes are windows inside which checkpoint-commit rounds
	// kill a whole failure domain mid-commit, one round per entry.
	DomainCrashes []DomainCrashWindow
	// Decays are the storage-decay lines as written, at most one per
	// store: a decay draws at run time, from its own seeded stream.
	Decays []Spec
}

// HitsStorage reports whether the plan holds storage faults: outages,
// brownouts, bit flips or decay, which land only on a store the driver
// wraps.
func (p *Plan) HitsStorage() bool {
	return len(p.Outages)+len(p.Brownouts)+len(p.BitFlips)+len(p.Decays) > 0
}

// Compile resolves the schedule's seeded draws into a Plan. The same
// (schedule, seed) pair always yields the identical plan; different
// seeds move every jittered instant and shifted window. Specs sharing a
// correlation group share one base draw, so their events land at the
// same fractional position of their respective windows — a correlated
// failure burst.
func (s *Schedule) Compile(seed uint64) (*Plan, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	// The stream is seeded on the first draw: a schedule of whole-run
	// lines draws nothing.
	var rng *rand.Rand
	draw := func() float64 {
		if rng == nil {
			rng = rand.New(rand.NewPCG(seed, 0xC4A05))
		}
		return rng.Float64()
	}
	groupBase := make(map[string]float64)
	// base returns the spec's fractional position draw: the group's
	// shared draw when grouped (drawn on first use, in spec order, so
	// compilation stays deterministic), a fresh one otherwise.
	base := func(sp Spec) float64 {
		if sp.Group == "" {
			return draw()
		}
		f, ok := groupBase[sp.Group]
		if !ok {
			f = draw()
			groupBase[sp.Group] = f
		}
		return f
	}
	p := &Plan{Seed: seed}
	var net Spec // the net line, if any
	var windows []mpi.DegradedWindow
	for _, sp := range s.Specs {
		count := cmp.Or(sp.Count, 1)
		switch sp.Kind {
		case Crash, BitFlip:
			for i := 0; i < count; i++ {
				at := sp.From + des.Time(base(sp)*float64(sp.To-sp.From))
				if sp.Jitter > 0 {
					at += des.Time(draw() * float64(sp.Jitter))
				}
				at = min(at, sp.To)
				if sp.Kind == Crash {
					p.Crashes = append(p.Crashes, at)
				} else {
					p.BitFlips = append(p.BitFlips, at)
				}
			}
		case CommitCrash:
			w := shiftWindow(sp, base(sp))
			for i := 0; i < count; i++ {
				p.CommitCrashes = append(p.CommitCrashes, w)
			}
		case Partition:
			windows = append(windows, degraded(shiftWindow(sp, base(sp)), sp.Drop, 1))
		case Brownout:
			windows = append(windows, degraded(shiftWindow(sp, base(sp)), sp.Drop, sp.Slow))
		case StorageOutage:
			p.Outages = append(p.Outages, shiftWindow(sp, base(sp)))
		case StorageBrownout:
			p.Brownouts = append(p.Brownouts, BrownoutWindow{Window: shiftWindow(sp, base(sp)), Rate: sp.Rate})
		case DrainCrash:
			phase, err := mpi.ParseDrainPhase(sp.Phase)
			if err != nil {
				return nil, fmt.Errorf("chaos: compile: %w", err)
			}
			w := shiftWindow(sp, base(sp))
			for i := 0; i < count; i++ {
				p.DrainCrashes = append(p.DrainCrashes, DrainCrashWindow{Window: w, Phase: phase})
			}
		case DomainCrash:
			w := shiftWindow(sp, base(sp))
			for i := 0; i < count; i++ {
				p.DomainCrashes = append(p.DomainCrashes, DomainCrashWindow{Window: w, Domain: sp.Domain})
			}
		case PoissonCrash:
			p.CrashMean = sp.Mean
		case Net:
			net = sp
		case ParityFlip:
			for i := 0; i < count; i++ {
				p.ParityFlips = append(p.ParityFlips, Window{From: sp.From, To: sp.To})
			}
		case StorageDecay:
			p.Decays = append(p.Decays, sp)
		}
	}
	if net.Kind == Net || len(windows) > 0 {
		p.Net = &mpi.NetFaultConfig{Seed: cmp.Or(net.Seed, seed^0x9E77), DropRate: net.Drop, DupRate: net.Dup, JitterMax: net.Jitter, Windows: windows}
	}
	slices.Sort(p.Crashes)
	slices.Sort(p.BitFlips)
	return p, nil
}

// shiftWindow applies a window kind's seeded jitter: the whole window
// shifts by frac*Jitter, preserving its width.
func shiftWindow(sp Spec, frac float64) Window {
	shift := des.Time(frac * float64(sp.Jitter))
	return Window{From: sp.From + shift, To: sp.To + shift}
}

// degraded converts a window to mpi's fabric-degradation form.
func degraded(w Window, drop, slow float64) mpi.DegradedWindow {
	return mpi.DegradedWindow{From: w.From, To: w.To, ExtraDrop: drop, SlowFactor: slow}
}
