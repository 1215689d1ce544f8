package experiments

import (
	"fmt"
	"strings"

	"repro/internal/autonomic"
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
	// decay holds each replica's storage-decay fault fields ("": a
	// clean replica); its length is the mirror width.
	decay []string
}

// faultScenarios returns the A14 grid: each fault class alone and
// mirrored, plus the clean baseline and the kitchen-sink stack. The
// dying replica is otherwise clean: its loss, not its decay, is the
// injected fault.
func faultScenarios() []faultScenario {
	const decay, dies = "transient 0.08 torn 0.05 corrupt 0.05", "die-after 30"
	return []faultScenario{
		{name: "clean", decay: []string{""}},
		{name: "transient", decay: []string{"transient 0.15"}},
		{name: "decay", decay: []string{decay}},
		{name: "decay", decay: []string{decay, decay}},
		{name: "outage", decay: []string{dies}},
		{name: "outage+decay", decay: []string{dies, decay}},
	}
}

// faults returns the scenario's schedule at seed: the node-failure
// clock plus one storage-decay line per degraded replica, replica i's
// on store i with stream seed seed·97+i.
func (sc faultScenario) faults(seed uint64) string {
	text := "crash every exp 3s"
	for i, line := range sc.decay {
		if line != "" {
			text += fmt.Sprintf("\nstorage-decay %s seed %d store %d", line, seed*97+uint64(i), i)
		}
	}
	return text
}

// StorageFaultAblation runs the A14 grid over the given failure seeds
// (nil → a default sweep of three). Each scenario's storage tier is the
// config's hardened stack: one replica per decay entry, each integrity-
// enveloped and retry-wrapped over the chaos driver's store i, mirrored
// when there are several.
func StorageFaultAblation(seeds []uint64) ([]FaultRow, error) {
	var rows []FaultRow
	for _, sc := range faultScenarios() {
		row := FaultRow{Scenario: sc.name, Replicas: len(sc.decay)}
		// The storage tier winning is a legitimate outcome of this grid:
		// an injected run that dies is incomplete, not divergent.
		row.SweepStats = sweepSeeds(seeds, 4, true, func(cfg autonomic.Config) autonomic.Config {
			cfg.Faults, cfg.Replicas = sc.faults(cfg.Seed), len(sc.decay)
			return cfg
		}, func(out *autonomic.ReplayOutcome) {
			rep := out.Injected
			row.Recoveries += rep.Recoveries
			row.Degraded += rep.DegradedRecoveries
			row.CkptFailures += rep.CheckpointFailures
			for _, st := range rep.Retry {
				row.Retries += st.Retries
			}
			row.Failovers += rep.Mirror.FailoverReads
			row.Repairs += rep.Mirror.ReadRepairs
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
