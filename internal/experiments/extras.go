package experiments

import (
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/storage"
	"repro/internal/workload"
)

// IntrusivenessRow is one point of the §6.5 experiment: the modelled
// instrumentation slowdown at a given timeslice.
type IntrusivenessRow struct {
	TimesliceS float64
	Slowdown   float64 // fraction, e.g. 0.08 = 8%
	Faults     uint64
}

// Intrusiveness reproduces §6.5: the slowdown Sage-1000MB suffers under
// the instrumentation, below 10% at a 1 s timeslice and decreasing as the
// timeslice grows (page reuse amortises the fault handler).
func Intrusiveness(opts RunOpts, timeslices []des.Time) ([]IntrusivenessRow, error) {
	if len(timeslices) == 0 {
		timeslices = []des.Time{
			des.Second, 2 * des.Second, 5 * des.Second,
			10 * des.Second, 20 * des.Second,
		}
	}
	spec := workload.Sage1000MB()
	o := opts
	o.Periods = max(opts.Periods, 2)
	runs, err := sweepTimeslices(spec, o, timeslices)
	if err != nil {
		return nil, err
	}
	rows := make([]IntrusivenessRow, len(runs))
	for i, r := range runs {
		var faults uint64
		for _, s := range r.Samples {
			faults += s.Faults
		}
		rows[i] = IntrusivenessRow{
			TimesliceS: timeslices[i].Seconds(),
			Slowdown:   r.Slowdown,
			Faults:     faults,
		}
	}
	return rows, nil
}

// AlignmentResult compares coordinated checkpoints taken in the middle of
// the processing burst against checkpoints aligned to the quiet
// communication window — quantifying the paper's §6.2 observation that
// it is "not convenient to checkpoint during a processing burst, because
// pages are likely to be re-used in a short amount of time".
type AlignmentResult struct {
	// Checkpoints per policy (equal by construction).
	Checkpoints int
	// MidBurstCowMB / AlignedCowMB: copy-on-write pre-image traffic an
	// overlapped checkpointer pays while draining, per policy.
	MidBurstCowMB float64
	AlignedCowMB  float64
	// MidBurstVolumeMB / AlignedVolumeMB: checkpoint payload per policy.
	MidBurstVolumeMB float64
	AlignedVolumeMB  float64
}

// ckptRun drives spec on one rank with a checkpointer and triggers
// checkpoints at iterZero + (k + phase) * period for k = 1..n.
func ckptRun(spec workload.Spec, opts RunOpts, phase float64, n int) (cowBytes, volBytes uint64, err error) {
	opts = opts.withDefaults()
	r, err := workload.New(spec, workload.Config{Ranks: opts.Ranks, Seed: opts.Seed})
	if err != nil {
		return 0, 0, err
	}
	if err := r.RunToIterZero(); err != nil {
		return 0, 0, err
	}
	c, err := ckpt.NewCheckpointer(r.Eng, r.Space(0), ckpt.Options{
		Store:    storage.NewMemStore(),
		Sink:     storage.SCSISink(),
		TrackCow: true,
	})
	if err != nil {
		return 0, 0, err
	}
	c.Start()
	if _, err := c.Checkpoint(); err != nil { // baseline full, not compared
		return 0, 0, err
	}
	period := spec.PeriodAt(opts.Ranks)
	base := r.Eng.Now()
	var volume uint64
	for k := 1; k <= n; k++ {
		at := base + des.Time(float64(period)*(float64(k)+phase))
		r.Eng.Schedule(at, func() {
			res, cerr := c.Checkpoint()
			if cerr != nil {
				err = cerr
				return
			}
			volume += res.PageBytes
		})
	}
	r.Run(base + des.Time(n+1)*period)
	if err != nil {
		return 0, 0, err
	}
	return c.Stats().CowCopyBytes, volume, nil
}

// AblationAlignment runs the A1 ablation on Sage-1000MB with a checkpoint
// interval of one iteration, comparing mid-burst and communication-window
// alignment.
func AblationAlignment(opts RunOpts) (*AlignmentResult, error) {
	spec := workload.Sage1000MB()
	n := max(opts.Periods, 3)
	// Mid-burst: halfway through the processing burst.
	midCow, midVol, err := ckptRun(spec, opts, spec.BurstFrac/2, n)
	if err != nil {
		return nil, err
	}
	// Aligned: midway through the communication window, after the burst.
	alCow, alVol, err := ckptRun(spec, opts, spec.BurstFrac+(1-spec.BurstFrac)/2, n)
	if err != nil {
		return nil, err
	}
	return &AlignmentResult{
		Checkpoints:      n,
		MidBurstCowMB:    float64(midCow) / MB,
		AlignedCowMB:     float64(alCow) / MB,
		MidBurstVolumeMB: float64(midVol) / MB,
		AlignedVolumeMB:  float64(alVol) / MB,
	}, nil
}

// IncrementalResult is the A3 ablation: incremental versus full
// checkpoint volume, and the memory-exclusion savings, for Sage (the
// application with dynamic memory).
type IncrementalResult struct {
	Checkpoints   int
	FullMB        float64 // total volume with every checkpoint full
	IncrementalMB float64 // total volume with delta checkpoints
	Ratio         float64 // incremental / full
	ExcludedMB    float64 // dirty pages dropped by memory exclusion
}

// AblationIncremental runs Sage-1000MB under a fixed checkpoint interval
// twice — all-full versus incremental — and reports the volume ratio.
func AblationIncremental(opts RunOpts, interval des.Time) (*IncrementalResult, error) {
	if interval == 0 {
		interval = 10 * des.Second
	}
	spec := workload.Sage1000MB()
	opts = opts.withDefaults()
	run := func(fullEvery int) (vol, excluded uint64, n int, err error) {
		r, err := workload.New(spec, workload.Config{Ranks: opts.Ranks, Seed: opts.Seed})
		if err != nil {
			return 0, 0, 0, err
		}
		if err := r.RunToIterZero(); err != nil {
			return 0, 0, 0, err
		}
		c, err := ckpt.NewCheckpointer(r.Eng, r.Space(0), ckpt.Options{
			Store:     storage.NewMemStore(),
			Sink:      storage.SCSISink(),
			FullEvery: fullEvery,
		})
		if err != nil {
			return 0, 0, 0, err
		}
		c.Start()
		co, err := ckpt.NewCoordinator(r.Eng, []*ckpt.Checkpointer{c})
		if err != nil {
			return 0, 0, 0, err
		}
		co.StartInterval(interval)
		r.Run(r.Eng.Now() + des.Time(max(opts.Periods, 2))*spec.PeriodAt(opts.Ranks))
		co.Stop()
		for _, g := range co.Results() {
			vol += g.TotalPageBytes
		}
		st := c.Stats()
		return vol, st.ExcludedPages * r.Space(0).PageSize(), len(co.Results()), nil
	}
	fullVol, _, n, err := run(1)
	if err != nil {
		return nil, err
	}
	incrVol, excluded, _, err := run(0)
	if err != nil {
		return nil, err
	}
	res := &IncrementalResult{
		Checkpoints:   n,
		FullMB:        float64(fullVol) / MB,
		IncrementalMB: float64(incrVol) / MB,
		ExcludedMB:    float64(excluded) / MB,
	}
	if fullVol > 0 {
		res.Ratio = float64(incrVol) / float64(fullVol)
	}
	return res, nil
}

// EfficiencyRow is one point of the A2 extension: end-to-end machine
// efficiency under failures as a function of the checkpoint interval.
type EfficiencyRow struct {
	IntervalS   float64
	CkptMB      float64 // incremental volume per checkpoint per process
	CkptCostS   float64 // commit time at the SCSI sink
	AnalyticEff float64
	SimEff      float64
}

// EfficiencyResult carries the A2 sweep plus the Young/Daly optima.
type EfficiencyResult struct {
	Rows []EfficiencyRow
	// YoungS and DalyS are the closed-form optimal intervals computed
	// from the measured checkpoint cost at the sweep's middle point.
	YoungS, DalyS float64
	// FullCkptEff is the analytic efficiency at the best sweep interval
	// if every checkpoint were full (footprint-sized) instead of
	// incremental — what incrementality buys at system level.
	FullCkptEff   float64
	BestEff       float64
	BestIntervalS float64
}

// Efficiency runs the A2 extension for Sage-1000MB on a BlueGene/L-scale
// machine (§1: failures every few hours): measure the incremental volume
// at each candidate interval, derive the checkpoint commit cost, and
// evaluate machine efficiency analytically and by Monte-Carlo rollback
// simulation.
func Efficiency(opts RunOpts, mtbf des.Time) (*EfficiencyResult, error) {
	if mtbf == 0 {
		mtbf = des.FromSeconds(3600) // 1 h system MTBF
	}
	spec := workload.Sage1000MB()
	intervals := []des.Time{
		2 * des.Second, 5 * des.Second, 10 * des.Second,
		20 * des.Second, 40 * des.Second, 80 * des.Second, 160 * des.Second,
	}
	o := opts
	o.Periods = max(opts.Periods, 2)
	// Interval == timeslice: the IWS at that timeslice is exactly the
	// per-checkpoint delta volume.
	runs, err := sweepTimeslices(spec, o, intervals)
	if err != nil {
		return nil, err
	}
	sink := storage.SCSISink()
	fm := cluster.FailureModel{NodeMTBF: mtbf * 64, Nodes: 64}
	out := &EfficiencyResult{}
	work := des.FromSeconds(50 * 3600)
	for i, r := range runs {
		iws := r.IBSummary().Mean * intervals[i].Seconds() // MB per checkpoint
		cost := sink.WriteTime(uint64(iws * MB))
		job := cluster.Job{
			Work:        work,
			Interval:    intervals[i],
			CkptCost:    cost,
			RestartCost: cost + 30*des.Second,
		}
		sim, err := cluster.SimulateMean(job, fm, 10, opts.Seed+1)
		if err != nil {
			return nil, err
		}
		row := EfficiencyRow{
			IntervalS:   intervals[i].Seconds(),
			CkptMB:      iws,
			CkptCostS:   cost.Seconds(),
			AnalyticEff: cluster.AnalyticEfficiency(intervals[i], cost, job.RestartCost, fm.SystemMTBF()),
			SimEff:      sim.Efficiency,
		}
		out.Rows = append(out.Rows, row)
		if row.AnalyticEff > out.BestEff {
			out.BestEff = row.AnalyticEff
			out.BestIntervalS = row.IntervalS
		}
	}
	// Closed-form optima using the mid-sweep cost.
	midCost := des.FromSeconds(out.Rows[len(out.Rows)/2].CkptCostS)
	out.YoungS = cluster.YoungInterval(midCost, fm.SystemMTBF()).Seconds()
	out.DalyS = cluster.DalyInterval(midCost, fm.SystemMTBF()).Seconds()
	// Full-checkpoint comparison at the best interval.
	fullCost := sink.WriteTime(uint64(spec.Paper.AvgFootprintMB * MB))
	out.FullCkptEff = cluster.AnalyticEfficiency(
		des.FromSeconds(out.BestIntervalS), fullCost, fullCost+30*des.Second, fm.SystemMTBF())
	return out, nil
}

// FormatIntrusiveness renders the §6.5 rows.
func FormatIntrusiveness(rows []IntrusivenessRow) string {
	s := fmt.Sprintf("%12s %12s %12s\n", "timeslice(s)", "slowdown(%)", "faults")
	for _, r := range rows {
		s += fmt.Sprintf("%12.1f %12.2f %12d\n", r.TimesliceS, r.Slowdown*100, r.Faults)
	}
	return s
}

// FormatAlignment renders the A1 comparison, one row per placement.
func FormatAlignment(r *AlignmentResult) string {
	s := fmt.Sprintf("%-22s %8s %12s %10s\n", "placement", "ckpts", "volume MB", "CoW MB")
	s += fmt.Sprintf("%-22s %8d %12.1f %10.1f\n", "mid-burst", r.Checkpoints, r.MidBurstVolumeMB, r.MidBurstCowMB)
	s += fmt.Sprintf("%-22s %8d %12.1f %10.1f\n", "communication window", r.Checkpoints, r.AlignedVolumeMB, r.AlignedCowMB)
	return s
}

// FormatIncremental renders the A3 comparison.
func FormatIncremental(r *IncrementalResult) string {
	return fmt.Sprintf("%8s %12s %16s %8s %12s\n%8d %12.1f %16.1f %8.2f %12.1f\n",
		"ckpts", "full MB", "incremental MB", "ratio", "excluded MB",
		r.Checkpoints, r.FullMB, r.IncrementalMB, r.Ratio, r.ExcludedMB)
}

// FormatEfficiency renders the A2 sweep and its optima.
func FormatEfficiency(e *EfficiencyResult) string {
	s := fmt.Sprintf("%12s %12s %12s %12s %12s\n", "interval(s)", "ckpt(MB)", "cost(s)", "analytic", "simulated")
	for _, r := range e.Rows {
		s += fmt.Sprintf("%12.0f %12.1f %12.2f %11.1f%% %11.1f%%\n",
			r.IntervalS, r.CkptMB, r.CkptCostS, r.AnalyticEff*100, r.SimEff*100)
	}
	s += fmt.Sprintf("\n  best interval      : %.0f s (%.1f%% efficient)\n", e.BestIntervalS, e.BestEff*100)
	s += fmt.Sprintf("  Young optimum      : %.0f s, Daly optimum: %.0f s\n", e.YoungS, e.DalyS)
	s += fmt.Sprintf("  full checkpoints   : %.1f%% efficient at the same interval — incrementality buys %.1f points\n",
		e.FullCkptEff*100, (e.BestEff-e.FullCkptEff)*100)
	return s
}
