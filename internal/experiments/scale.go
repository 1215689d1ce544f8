package experiments

import (
	"fmt"
	"math"

	"repro/internal/des"
	"repro/internal/metrics"
	"repro/internal/tracker"
	"repro/internal/workload"
)

// SymmetryResult validates the premise of the paper's single-process
// presentation (§6.1): "all these applications display a bulk-synchronous
// behavior with similar performance characteristics on each process, [so]
// the behavior of a single process is able to capture the behavior of the
// entire parallel program". Every rank is tracked and the per-rank
// average IB spread is reported.
type SymmetryResult struct {
	App        string
	Ranks      int
	PerRankAvg []float64 // MB/s per rank
	MeanMBs    float64
	// MaxSpread is the largest relative deviation of any rank from the
	// mean: max_i |avg_i - mean| / mean.
	MaxSpread float64
}

// RankSymmetry runs one application with a tracker on every rank and
// measures how similar the per-rank bandwidth requirements are.
func RankSymmetry(spec workload.Spec, opts RunOpts) (*SymmetryResult, error) {
	opts = opts.withDefaults()
	r, err := workload.New(spec, workload.Config{Ranks: opts.Ranks, Seed: opts.Seed})
	if err != nil {
		return nil, err
	}
	if err := r.RunToIterZero(); err != nil {
		return nil, err
	}
	trs := make([]*tracker.Tracker, opts.Ranks)
	for i := 0; i < opts.Ranks; i++ {
		tr, err := tracker.New(r.Eng, r.Space(i), tracker.Options{Timeslice: opts.Timeslice})
		if err != nil {
			return nil, err
		}
		tr.AttachRank(r.World, i)
		tr.Start()
		trs[i] = tr
	}
	period := spec.PeriodAt(opts.Ranks)
	dur := des.Time(periodsFor(spec, 10)) * period
	slices := dur / opts.Timeslice
	r.Run(r.Now() + slices*opts.Timeslice)

	res := &SymmetryResult{App: spec.Name, Ranks: opts.Ranks}
	for _, tr := range trs {
		tr.Stop()
		m := metrics.Summarize(tr.IBSeries())
		res.PerRankAvg = append(res.PerRankAvg, m.Mean)
		res.MeanMBs += m.Mean
	}
	res.MeanMBs /= float64(opts.Ranks)
	for _, v := range res.PerRankAvg {
		if res.MeanMBs > 0 {
			if d := math.Abs(v-res.MeanMBs) / res.MeanMBs; d > res.MaxSpread {
				res.MaxSpread = d
			}
		}
	}
	return res, nil
}

// AggregateRow extends the paper's per-process feasibility argument to
// whole-machine scale: the aggregate checkpoint stream of N processes
// against a shared storage array.
type AggregateRow struct {
	Ranks int
	// AggregateGBs is N x the per-process average requirement.
	AggregateGBs float64
	// PerNodeFeasible: with the paper's per-node SCSI disks (320 MB/s
	// each), feasibility is independent of N.
	PerNodeFeasible bool
	// RequiredArrayGBs is the shared-array bandwidth needed to keep up.
	RequiredArrayGBs float64
}

// AggregateFeasibility measures one application's per-process requirement
// and scales it to machine sizes up to BlueGene/L's 65,536 processors
// (§1). The paper's argument holds with per-node disks (the requirement
// per process is flat, Fig 5); a shared array must instead grow linearly
// with the machine — the quantitative reason coordinated checkpointing
// systems shard their checkpoint I/O.
func AggregateFeasibility(spec workload.Spec, opts RunOpts, rankCounts []int) ([]AggregateRow, error) {
	if len(rankCounts) == 0 {
		rankCounts = []int{64, 1024, 8192, 65536}
	}
	o := opts
	o.Timeslice = des.Second
	o.Periods = max(opts.Periods, 2)
	run, err := RunOne(spec, o)
	if err != nil {
		return nil, err
	}
	perProc := run.IBSummary().Mean // MB/s
	rows := make([]AggregateRow, len(rankCounts))
	for i, n := range rankCounts {
		agg := perProc * float64(n) / 1000 // GB/s
		rows[i] = AggregateRow{
			Ranks:            n,
			AggregateGBs:     agg,
			PerNodeFeasible:  perProc < 320,
			RequiredArrayGBs: agg,
		}
	}
	return rows, nil
}

// FormatSymmetry renders the A7 verdict.
func FormatSymmetry(r *SymmetryResult) string {
	return fmt.Sprintf("%-12s %6s %12s %14s\n%-12s %6d %12.1f %13.2f%%\n",
		"Application", "ranks", "mean MB/s", "max spread", r.App, r.Ranks, r.MeanMBs, r.MaxSpread*100)
}

// FormatAggregate renders the A9 whole-machine rows.
func FormatAggregate(rows []AggregateRow) string {
	s := fmt.Sprintf("%8s %18s %16s\n", "ranks", "shared array GB/s", "per-node disks")
	for _, r := range rows {
		s += fmt.Sprintf("%8d %18.2f %16s\n", r.Ranks, r.RequiredArrayGBs, yesNo(r.PerNodeFeasible))
	}
	return s
}
