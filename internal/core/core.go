// Package core is the library's high-level entry point, tying the
// substrates together into the two operations a user wants:
//
//   - Measure: run one of the paper's applications under the
//     instrumentation library and obtain its Incremental Working Set /
//     Incremental Bandwidth profile plus the feasibility verdict of §6.3
//     (how much headroom the network and disk sinks have over the
//     measured requirement).
//
//   - Protect: run an application under coordinated incremental
//     checkpointing across all ranks and obtain the checkpoint volumes,
//     commit latencies and copy-on-write traffic.
//
// Lower-level control (custom workloads, real kernels, restore, failure
// simulation) is available from the subsystem packages: workload,
// tracker, ckpt, kernels, cluster, experiments.
package core

import (
	"repro/internal/ckpt"
	"repro/internal/des"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/storage"
	"repro/internal/workload"
)

// MB is the paper's megabyte (10^6 bytes).
const MB = 1e6

// Apps returns the names of the built-in application models, in the
// paper's Table 2 order.
func Apps() []string {
	specs := workload.All()
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

// MeasureConfig configures a Measure run: at least three whole
// iterations after the data-initialization burst, sampled every 1 s.
type MeasureConfig struct {
	// App names one of Apps(). Required.
	App string
	// Ranks is the MPI process count (0 → the paper's 64).
	Ranks int
	// Seed makes runs reproducible (0 → a fixed default).
	Seed uint64
	// Shards is accepted and ignored: every run is on one engine.
	// Kept only for the frozen benchmark/ harness; ROADMAP item 3 deletes it.
	Shards int
}

// MeasureResult is the instrumentation profile of one run.
type MeasureResult struct {
	App       string
	Ranks     int
	Timeslice des.Time

	// AvgIBMBs and MaxIBMBs summarise the Incremental Bandwidth in MB/s
	// with the initialization burst excluded — Table 4's quantities.
	AvgIBMBs, MaxIBMBs float64
	// AvgFootprintMB and MaxFootprintMB are Table 2's quantities.
	AvgFootprintMB, MaxFootprintMB float64
	// Slowdown is the modelled instrumentation overhead (§6.5).
	Slowdown float64
	// NetworkHeadroom and DiskHeadroom are available/required bandwidth
	// ratios against the paper's QsNet and SCSI sinks; above 1 means
	// checkpointing keeps up (§6.3).
	NetworkHeadroom, DiskHeadroom float64

	// Raw per-timeslice series (MB, MB/s, MB, MB).
	IWS, IB, Recv, Footprint *metrics.Series
}

// Feasible reports whether the measured average requirement fits within
// both the network and the disk sink.
func (m *MeasureResult) Feasible() bool {
	return m.NetworkHeadroom > 1 && m.DiskHeadroom > 1
}

// Measure runs the named application under the tracker and returns its
// incremental-checkpointing profile.
func Measure(cfg MeasureConfig) (*MeasureResult, error) {
	spec, err := workload.ByName(cfg.App)
	if err != nil {
		return nil, err
	}
	run, err := experiments.RunOne(spec, experiments.RunOpts{Ranks: cfg.Ranks, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	ib := metrics.Summarize(run.IB)
	fp := run.FootprintSummary()
	return &MeasureResult{
		App:             spec.Name,
		Ranks:           run.Opts.Ranks,
		Timeslice:       run.Opts.Timeslice,
		AvgIBMBs:        ib.Mean,
		MaxIBMBs:        ib.Max,
		AvgFootprintMB:  fp.Mean,
		MaxFootprintMB:  fp.Max,
		Slowdown:        run.Slowdown,
		NetworkHeadroom: storage.QsNetSink().Headroom(ib.Mean * MB),
		DiskHeadroom:    storage.SCSISink().Headroom(ib.Mean * MB),
		IWS:             run.IWS,
		IB:              run.IB,
		Recv:            run.Recv,
		Footprint:       run.Footprint,
	}, nil
}

// ProtectConfig configures a Protect run.
type ProtectConfig struct {
	// App names one of Apps(). Required.
	App string
	// Ranks is the MPI process count (0 → 8; coordinated
	// checkpointing tracks every rank, so this is the cost knob).
	Ranks int
	// Interval is the coordinated checkpoint interval (0 → 10 s).
	Interval des.Time
	// FullEvery forces a full checkpoint every N checkpoints
	// (0 → only the first).
	FullEvery int
	// Periods is the number of whole iterations to protect (0 → 2).
	Periods int
	// Seed makes runs reproducible.
	Seed uint64
	// Store receives the encoded segments (nil → a fresh in-memory
	// store). Pass a storage.FileStore to persist checkpoints on disk.
	// The models' memory is phantom, so the segments are content-free:
	// they size a checkpoint but cannot restore one.
	Store storage.Store
	// TrackCow enables copy-on-write accounting during drains.
	TrackCow bool
}

// ProtectResult summarises a protected run.
type ProtectResult struct {
	App         string
	Ranks       int
	Interval    des.Time
	Checkpoints int
	// TotalMB is the page payload persisted across all ranks and
	// checkpoints; MeanPerCkptMB is the per-global-checkpoint mean.
	TotalMB       float64
	MeanPerCkptMB float64
	// MaxCommitS is the worst global commit latency (slowest rank).
	MaxCommitS float64
	// CowMB is the copy-on-write traffic (TrackCow only).
	CowMB float64
	// ExcludedMB is the data saved by memory exclusion.
	ExcludedMB float64
	// Globals holds the raw coordinated-checkpoint results.
	Globals []ckpt.GlobalResult
}

// Protect runs the named application with coordinated incremental
// checkpointing on every rank.
func Protect(cfg ProtectConfig) (*ProtectResult, error) {
	spec, err := workload.ByName(cfg.App)
	if err != nil {
		return nil, err
	}
	if cfg.Ranks == 0 {
		cfg.Ranks = 8
	}
	if cfg.Interval == 0 {
		cfg.Interval = 10 * des.Second
	}
	if cfg.Periods == 0 {
		cfg.Periods = 2
	}
	r, err := workload.New(spec, workload.Config{Ranks: cfg.Ranks, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	if err := r.RunToIterZero(); err != nil {
		return nil, err
	}
	store := cfg.Store
	if store == nil {
		store = storage.NewMemStore()
	}
	var cps []*ckpt.Checkpointer
	for i := 0; i < cfg.Ranks; i++ {
		c, err := ckpt.NewCheckpointer(r.Eng, r.Space(i), ckpt.Options{
			Rank:      i,
			Store:     store,
			FullEvery: cfg.FullEvery,
			TrackCow:  cfg.TrackCow,
		})
		if err != nil {
			return nil, err
		}
		c.Start()
		cps = append(cps, c)
	}
	co, err := ckpt.NewCoordinator(r.Eng, cps)
	if err != nil {
		return nil, err
	}
	co.StartInterval(cfg.Interval)
	r.Run(r.Now() + des.Time(cfg.Periods)*spec.PeriodAt(cfg.Ranks))
	co.Stop()

	res := &ProtectResult{
		App:         spec.Name,
		Ranks:       cfg.Ranks,
		Interval:    cfg.Interval,
		Checkpoints: len(co.Results()),
		Globals:     co.Results(),
	}
	for _, g := range co.Results() {
		res.TotalMB += float64(g.TotalPageBytes) / MB
		if s := g.MaxDuration.Seconds(); s > res.MaxCommitS {
			res.MaxCommitS = s
		}
	}
	if res.Checkpoints > 0 {
		res.MeanPerCkptMB = res.TotalMB / float64(res.Checkpoints)
	}
	for _, c := range cps {
		st := c.Stats()
		res.CowMB += float64(st.CowCopyBytes) / MB
		res.ExcludedMB += float64(st.ExcludedPages) * float64(r.Space(0).PageSize()) / MB
	}
	return res, nil
}
