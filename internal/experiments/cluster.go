package experiments

import (
	"fmt"
	"strings"

	"repro/internal/autonomic"
	"repro/internal/des"
)

// A15: cluster-fault ablation. A14 dropped the stable-storage
// assumption; this experiment drops the stable-*cluster* one. The same
// supervised Jacobi run executes over a flaky interconnect (seeded
// per-message loss, duplication and jitter), failures are found by a
// gossip heartbeat detector instead of an oracle, and every coordinated
// checkpoint goes through the two-phase prepare/commit protocol. The
// grid sweeps message-loss rate × heartbeat period × checkpoint
// timeslice and reports what cluster-level fault tolerance costs: the
// measured detection-latency distribution, loss-induced false
// suspicions, commits aborted by mid-checkpoint deaths, and the
// end-to-end efficiency — all bit-reproducible per seed.

// ClusterRow is one cell of the A15 grid, aggregated over the seed
// sweep.
type ClusterRow struct {
	// LossRate is the per-message drop probability of the interconnect;
	// Period is the heartbeat gossip period; CkptEvery the checkpoint
	// timeslice in iterations.
	LossRate  float64
	Period    des.Time
	CkptEvery int
	SweepStats
	// Failures and Recoveries sum node deaths and completed recoveries.
	Failures, Recoveries int
	// AbortedCommits sums two-phase rounds rolled back by a death inside
	// the commit window.
	AbortedCommits int
	// MeanDetect and MaxDetect summarise the measured detection-latency
	// distribution across all heartbeat-detected failures.
	MeanDetect, MaxDetect des.Time
	// FalseSuspicions sums loss-induced suspicions of live peers.
	FalseSuspicions int
}

// clusterGrid returns the A15 sweep: loss rate × heartbeat period ×
// checkpoint timeslice.
func clusterGrid() (loss []float64, periods []des.Time, slices []int) {
	return []float64{0, 0.05, 0.15},
		[]des.Time{20 * des.Millisecond, 80 * des.Millisecond},
		[]int{5, 10}
}

// clusterCell is one A15 cell's variant of a seed's smallJacobi run:
// heartbeat detection and two-phase commit on every run, and a loss
// rate that also drives proportional duplication and delay jitter.
func clusterCell(cfg autonomic.Config, lr float64, period des.Time, every int) autonomic.Config {
	cfg.CkptEvery = every
	cfg.Faults = "crash every exp 3s"
	cfg.Sink = nfsClassSink
	cfg.TwoPhaseCommit = true
	cfg.HeartbeatPeriod = period
	if lr > 0 {
		cfg.Faults += fmt.Sprintf("\nnet loss %v dup %v jitter 200us seed %d", lr, lr/5, cfg.Seed*131+17)
	}
	return cfg
}

// FaultyClusterAblation runs the A15 grid over the given failure seeds
// (nil → a default sweep of three).
func FaultyClusterAblation(seeds []uint64) ([]ClusterRow, error) {
	loss, periods, slices := clusterGrid()
	var rows []ClusterRow
	for _, lr := range loss {
		for _, period := range periods {
			for _, every := range slices {
				row := ClusterRow{LossRate: lr, Period: period, CkptEvery: every}
				var latSum des.Time
				var latN int
				row.SweepStats = sweepSeeds(seeds, 4, true, func(cfg autonomic.Config) autonomic.Config {
					return clusterCell(cfg, lr, period, every)
				}, func(out *autonomic.ReplayOutcome) {
					rep := out.Injected
					row.Failures += rep.Failures
					row.Recoveries += rep.Recoveries
					row.AbortedCommits += rep.AbortedCommits
					row.FalseSuspicions += rep.FalseSuspicions
					for _, l := range rep.DetectionLatencies {
						latSum += l
						latN++
						row.MaxDetect = max(row.MaxDetect, l)
					}
				})
				if latN > 0 {
					row.MeanDetect = latSum / des.Time(latN)
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

// FormatCluster renders the A15 rows as a text table.
func FormatCluster(rows []ClusterRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%6s %8s %5s %6s %6s %6s %5s %5s %6s %9s %9s %7s\n",
		"loss%", "hb", "every", "done", "exact", "eff%", "fail", "recov", "abort", "detect~", "detect^", "falsus")
	for _, r := range rows {
		fmt.Fprintf(&b, "%6.1f %8v %5d %4d/%-2d %6s %6.1f %5d %5d %6d %9v %9v %7d\n",
			r.LossRate*100, r.Period, r.CkptEvery, r.Completed, r.Runs, yesNo(r.BitExact),
			r.MeanEfficiency*100, r.Failures, r.Recoveries, r.AbortedCommits,
			r.MeanDetect, r.MaxDetect, r.FalseSuspicions)
	}
	return b.String()
}
