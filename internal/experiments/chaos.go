package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/autonomic"
	"repro/internal/des"
)

// A16: chaos replay ablation. A14 hardened the storage tier and A15 the
// cluster; this experiment attacks the *whole stack at once* with
// declarative, seed-compiled fault schedules — node crashes, crashes
// aimed inside two-phase commit windows, network partitions correlated
// with node loss, storage brownouts and silent bit flips — and measures
// the end-to-end claim: the torn-and-replayed run finishes bit-identical
// to a failure-free run of the same seed (final address-space digests
// and solution checksum), and every injected failure carries non-zero
// lost-work accounting. The efficiency columns compare the configured
// checkpoint interval against the Young/Daly optimum computed from the
// run's own measured per-checkpoint cost and effective MTBF.

// ChaosRow is one schedule's aggregate over the seed sweep.
type ChaosRow struct {
	// Schedule names the fault scenario.
	Schedule string
	SweepStats
	// Failures sums injected failures; LostIterations the iterations
	// rolled back and replayed.
	Failures, LostIterations int
	// ReplayedWork is the virtual compute time spent re-executing lost
	// iterations.
	ReplayedWork des.Time
	// WastedCheckpoints sums committed lines invalidated by rollback.
	WastedCheckpoints int
	// Degraded sums recoveries that fell back past the newest claimed
	// line; AbortedCommits sums two-phase rounds killed mid-commit.
	Degraded, AbortedCommits int
	// BitFlips sums stored-payload corruptions actually injected.
	BitFlips int
	// ConfiguredInterval is the checkpoint interval the runs used;
	// YoungInterval is sqrt(2·C·MTBF) from the measured mean
	// per-checkpoint commit cost C and the measured effective MTBF —
	// the paper-era optimum the configuration can be judged against.
	ConfiguredInterval, YoungInterval des.Time
}

// chaosScenario is one A16 schedule: name, schedule text, and whether
// the runs use two-phase commit.
type chaosScenario struct {
	Name     string
	Text     string
	TwoPhase bool
}

// chaosExperimentSchedules returns the A16 scenarios.
func chaosExperimentSchedules() []chaosScenario {
	return []chaosScenario{
		{"crash", "crash at 1500ms..6s count 2 jitter 400ms", false},
		{"commit-crash", "commit-crash at 1s..30s count 2", true},
		{"partition+brownout",
			"partition at 2s..4s drop 0.9 group burst\n" +
				"crash at 2s..4s group burst\n" +
				"storage-brownout at 5s..7s rate 0.4",
			false},
		{"bitflip", "bitflip at 2s..9s count 4\ncrash at 3s..8s count 1", false},
	}
}

// ChaosReplayAblation runs every A16 scenario over the given seeds
// (nil → {3, 5, 9}) and aggregates per-schedule rows.
func ChaosReplayAblation(seeds []uint64) ([]ChaosRow, error) {
	// The A15 run with a fixed checkpoint timeslice, slow enough
	// (nfs-class sink, 200ms sweeps) that commit windows are wide targets.
	base := smallJacobi(4, 0)
	var rows []ChaosRow
	for _, sc := range chaosExperimentSchedules() {
		row := ChaosRow{Schedule: sc.Name, ConfiguredInterval: des.Time(base.CkptEvery) * base.ComputeTime}
		var commitSum, elapsedSum des.Time
		var lines int
		row.SweepStats = sweepSeeds(seeds, 4, false, func(cfg autonomic.Config) autonomic.Config {
			cfg.Sink = nfsClassSink
			cfg.TwoPhaseCommit = sc.TwoPhase
			cfg.Faults, cfg.Replicas = sc.Text, 1
			return cfg
		}, func(out *autonomic.ReplayOutcome) {
			rep := out.Injected
			row.BitFlips += out.Stats.BitFlips
			row.Failures += rep.Failures
			row.LostIterations += rep.LostIterations
			row.WastedCheckpoints += rep.WastedCheckpoints
			row.Degraded += rep.DegradedRecoveries
			row.AbortedCommits += rep.AbortedCommits
			commitSum += rep.CommitTime
			lines += rep.CommittedLines
			elapsedSum += rep.Elapsed
		})
		row.ReplayedWork = des.Time(row.LostIterations) * base.ComputeTime
		// Young's optimum from measured quantities: C is the mean
		// per-line commit pause, MTBF the elapsed time per failure.
		if lines > 0 && row.Failures > 0 {
			c := commitSum.Seconds() / float64(lines)
			mtbf := elapsedSum.Seconds() / float64(row.Failures)
			row.YoungInterval = des.FromSeconds(math.Sqrt(2 * c * mtbf))
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatChaos renders the A16 rows as a text table.
func FormatChaos(rows []ChaosRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-19s %6s %6s %6s %5s %5s %9s %6s %9s %5s %6s %6s %9s %9s\n",
		"schedule", "done", "exact", "eff%", "fail", "lost", "replayed", "wasted", "downtime~", "degr", "abort", "flips", "interval", "young")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-19s %4d/%-2d %6s %6.1f %5d %5d %9v %6d %9v %5d %6d %6d %9v %9v\n",
			r.Schedule, r.Completed, r.Runs, yesNo(r.BitExact), r.MeanEfficiency*100,
			r.Failures, r.LostIterations, r.ReplayedWork, r.WastedCheckpoints,
			r.MeanDowntime, r.Degraded, r.AbortedCommits, r.BitFlips,
			r.ConfiguredInterval, r.YoungInterval)
	}
	return b.String()
}
