package experiments

import (
	"fmt"
	"strings"

	"repro/internal/autonomic"
	"repro/internal/chaos"
	"repro/internal/des"
	"repro/internal/storage"
)

// A14: storage-fault ablation. The paper's feasibility argument assumes
// stable storage actually is stable; this experiment drops that
// assumption and measures what each hardening layer buys. A supervised
// distributed run (the A11 loop) executes against storage tiers that
// drop requests, tear writes, rot at rest and lose whole devices —
// alone and mirrored — and the rows report whether the run still
// finishes bit-exact, at what efficiency, and how hard the resilience
// machinery had to work.

// FaultRow is one storage configuration of the A14 ablation,
// aggregated over the seed sweep.
type FaultRow struct {
	// Scenario names the fault profile; Replicas is the mirror width
	// (1 = single sink).
	Scenario string
	Replicas int
	SweepStats
	// Recoveries, Degraded and CkptFailures sum the supervisor's
	// accounting over completed runs: node-failure recoveries, the
	// subset that fell back past the newest consistent line, and
	// coordinated checkpoints the storage tier refused.
	Recoveries, Degraded, CkptFailures int
	// Retries, Failovers and Repairs sum the storage-tier work:
	// transient retries absorbed, reads served by a non-primary
	// replica, and read-repairs written back.
	Retries, Failovers, Repairs uint64
}

// faultScenario is one storage configuration under test.
type faultScenario struct {
	name string
	// replicas is the mirror width.
	replicas int
	// decay is the fault profile of every replica (seeded per replica).
	decay storage.FaultConfig
	// outageOps, when positive, kills replica 0 permanently after that
	// many operations.
	outageOps int
}

// faultScenarios returns the A14 grid: each fault class alone and
// mirrored, plus the clean baseline and the kitchen-sink stack.
func faultScenarios() []faultScenario {
	decay := storage.FaultConfig{TransientRate: 0.08, TornWriteRate: 0.05, CorruptRate: 0.05}
	return []faultScenario{
		{name: "clean", replicas: 1},
		{name: "transient", replicas: 1, decay: storage.FaultConfig{TransientRate: 0.15}},
		{name: "decay", replicas: 1, decay: decay},
		{name: "decay", replicas: 2, decay: decay},
		{name: "outage", replicas: 1, outageOps: 30},
		{name: "outage+decay", replicas: 2, decay: decay, outageOps: 30},
	}
}

// hardenedStack builds one scenario's storage tier: per replica
// Resilient(Integrity(Faulty(Mem))), mirrored when replicas > 1. It
// returns the assembled store plus the wrapper handles for counters.
func hardenedStack(sc faultScenario, seed uint64) (storage.Store, []*storage.ResilientStore, *storage.MirrorStore, error) {
	var tops []*storage.ResilientStore
	var stores []storage.Store
	for i := 0; i < sc.replicas; i++ {
		cfg := sc.decay
		cfg.Seed = seed*97 + uint64(i)
		if i == 0 && sc.outageOps > 0 {
			// The dying replica is otherwise clean: its loss, not its
			// decay, is the injected fault.
			cfg = storage.FaultConfig{Seed: cfg.Seed, OutageAfterOps: sc.outageOps}
		}
		r := storage.NewResilientStore(
			storage.NewIntegrityStore(
				storage.NewFaultyStore(storage.NewMemStore(), cfg)),
			storage.DefaultRetryPolicy())
		tops = append(tops, r)
		stores = append(stores, r)
	}
	if sc.replicas == 1 {
		return tops[0], tops, nil, nil
	}
	m, err := storage.NewMirrorStore(stores...)
	return m, tops, m, err
}

// StorageFaultAblation runs the A14 grid over the given failure seeds
// (nil → a default sweep of three).
func StorageFaultAblation(seeds []uint64) ([]FaultRow, error) {
	var rows []FaultRow
	for _, sc := range faultScenarios() {
		row := FaultRow{Scenario: sc.name, Replicas: sc.replicas}
		// The storage tier winning is a legitimate outcome of this grid:
		// an injected run that dies is incomplete, not divergent.
		row.SweepStats = sweepSeeds(seeds, 4, true, func(cfg autonomic.Config) (*autonomic.ReplayOutcome, error) {
			store, tops, mirror, err := hardenedStack(sc, cfg.Seed)
			if err != nil {
				return nil, err
			}
			cfg.Faults = "crash every exp 3s"
			out, err := autonomic.ValidateReplayStore(cfg, nil, func(*des.Engine, *chaos.Driver) storage.Store { return store })
			for _, t := range tops {
				row.Retries += t.Stats().Retries
			}
			if mirror != nil {
				st := mirror.Stats()
				row.Failovers += uint64(st.FailoverReads)
				row.Repairs += uint64(st.ReadRepairs)
			}
			return out, err
		}, func(out *autonomic.ReplayOutcome) {
			rep := out.Injected
			row.Recoveries += rep.Recoveries
			row.Degraded += rep.DegradedRecoveries
			row.CkptFailures += rep.CheckpointFailures
		})
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatFaults renders the A14 rows as a text table.
func FormatFaults(rows []FaultRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %4s %6s %6s %6s %6s %6s %6s %8s %6s %6s\n",
		"scenario", "reps", "done", "exact", "eff%", "recov", "degr", "ckfail", "retries", "failov", "repair")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %4d %4d/%-2d %6s %6.1f %6d %6d %6d %8d %6d %6d\n",
			r.Scenario, r.Replicas, r.Completed, r.Runs, yesNo(r.BitExact),
			r.MeanEfficiency*100, r.Recoveries, r.Degraded, r.CkptFailures,
			r.Retries, r.Failovers, r.Repairs)
	}
	return b.String()
}
