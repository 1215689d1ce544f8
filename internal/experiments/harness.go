// Package experiments regenerates every table and figure of the paper's
// evaluation (§6) from the simulated substrate, plus the extension
// experiments listed in DESIGN.md. Each experiment returns structured
// rows carrying both the measured value and the paper's published value,
// so callers can render paper-vs-measured side by side. Artefacts
// (registry.go) is the one list of them that cmd/figures, the benchmark
// harness and the golden test iterate.
package experiments

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/des"
	"repro/internal/metrics"
	"repro/internal/tracker"
	"repro/internal/workload"
)

// MB is the paper's megabyte (10^6 bytes).
const MB = 1e6

// RunOpts configures one measured run.
type RunOpts struct {
	// Ranks is the MPI process count; zero selects the paper's 64.
	Ranks int
	// Timeslice is the checkpoint timeslice; zero selects 1 s
	// (Table 4's reference point).
	Timeslice des.Time
	// Periods is the minimum number of whole iterations measured; the
	// harness raises it so at least ~6 timeslices are covered. Zero
	// selects 3.
	Periods int
	// Seed drives the run's jitter; runs are deterministic per seed.
	Seed uint64
	// IncludeInit keeps the data-initialization phase in the sample
	// window (Fig 1 shows it; all summaries exclude it, §6.3).
	IncludeInit bool
	// PageSize overrides the simulated page size (0 → the Itanium II's
	// 16 KB). The page-size ablation sweeps this.
	PageSize uint64
}

func (o RunOpts) withDefaults() RunOpts {
	if o.Ranks == 0 {
		o.Ranks = 64
	}
	if o.Timeslice == 0 {
		o.Timeslice = des.Second
	}
	if o.Periods == 0 {
		o.Periods = 3
	}
	if o.Seed == 0 {
		o.Seed = 7
	}
	return o
}

// RunResult carries one run's tracker output.
type RunResult struct {
	Spec      workload.Spec
	Opts      RunOpts
	IterZero  des.Time
	Period    des.Time
	IWS       *metrics.Series // MB per slice
	IB        *metrics.Series // MB/s per slice
	Recv      *metrics.Series // MB received per slice
	Footprint *metrics.Series // MB mapped per slice
	Samples   []tracker.Sample
	Slowdown  float64
}

// IBSummary summarises the IB series (init already excluded).
func (r *RunResult) IBSummary() metrics.Summary { return metrics.Summarize(r.IB) }

// FootprintSummary summarises the footprint series.
func (r *RunResult) FootprintSummary() metrics.Summary { return metrics.Summarize(r.Footprint) }

// RunOne executes spec under a tracker on rank 0 and measures whole
// periods. Unless IncludeInit is set, the tracker is attached exactly at
// the first iteration boundary, so timeslices align with iterations and
// the initialization burst is excluded — matching the paper's analysis
// protocol (§6.3) and keeping period-granularity measurements (Table 3)
// free of straddle inflation.
func RunOne(spec workload.Spec, opts RunOpts) (*RunResult, error) {
	opts = opts.withDefaults()
	r, err := workload.New(spec, workload.Config{Ranks: opts.Ranks, Seed: opts.Seed, PageSize: opts.PageSize})
	if err != nil {
		return nil, err
	}
	// The tracker instruments rank 0 only.
	tr, err := tracker.New(r.Eng, r.Space(0), tracker.Options{Timeslice: opts.Timeslice})
	if err != nil {
		return nil, err
	}
	tr.AttachRank(r.World, 0)

	if opts.IncludeInit {
		tr.Start()
	} else {
		if err := r.RunToIterZero(); err != nil {
			return nil, err
		}
		tr.Start()
	}

	period := spec.PeriodAt(opts.Ranks)
	// Cover at least Periods whole iterations and at least 6 slices.
	dur := des.Time(opts.Periods) * period
	if minDur := 6 * opts.Timeslice; dur < minDur {
		// Round up to whole periods so iteration alignment holds.
		k := (minDur + period - 1) / period
		dur = k * period
	}
	// Truncate to whole timeslices so every sample is complete.
	slices := dur / opts.Timeslice
	if slices == 0 {
		return nil, fmt.Errorf("experiments: %s: timeslice %v exceeds measurement window %v", spec.Name, opts.Timeslice, dur)
	}
	r.Run(r.Now() + slices*opts.Timeslice)
	tr.Stop()

	return &RunResult{
		Spec:      spec,
		Opts:      opts,
		IterZero:  r.IterZero(),
		Period:    period,
		IWS:       tr.IWSSeries(),
		IB:        tr.IBSeries(),
		Recv:      tr.RecvSeries(),
		Footprint: tr.FootprintSeries(),
		Samples:   tr.Samples(),
		Slowdown:  tr.Slowdown(),
	}, nil
}

// job is one unit of a parallel sweep.
type job struct {
	idx  int
	spec workload.Spec
	opts RunOpts
}

// RunMany executes independent runs concurrently (each on its own
// simulation engine) and returns results in input order.
func RunMany(specs []workload.Spec, opts []RunOpts) ([]*RunResult, error) {
	if len(specs) != len(opts) {
		return nil, fmt.Errorf("experiments: %d specs vs %d opts", len(specs), len(opts))
	}
	jobs := make(chan job)
	results := make([]*RunResult, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	workers := min(runtime.GOMAXPROCS(0), len(specs))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				results[j.idx], errs[j.idx] = RunOne(j.spec, j.opts)
			}
		}()
	}
	for i := range specs {
		jobs <- job{i, specs[i], opts[i]}
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// sweepTimeslices runs one spec across a set of timeslices in parallel.
func sweepTimeslices(spec workload.Spec, base RunOpts, timeslices []des.Time) ([]*RunResult, error) {
	specs := make([]workload.Spec, len(timeslices))
	opts := make([]RunOpts, len(timeslices))
	for i, ts := range timeslices {
		specs[i] = spec
		o := base
		o.Timeslice = ts
		opts[i] = o
	}
	return RunMany(specs, opts)
}

// DefaultTimeslices returns the paper's timeslice sweep (Figures 2-5):
// 1 s to 20 s.
func DefaultTimeslices() []des.Time {
	secs := []int{1, 2, 4, 6, 8, 10, 12, 14, 16, 20}
	out := make([]des.Time, len(secs))
	for i, s := range secs {
		out[i] = des.Time(s) * des.Second
	}
	return out
}

// periodsFor picks a measurement length that keeps short-period apps
// statistically stable without making long-period apps expensive.
func periodsFor(spec workload.Spec, atLeast float64) int {
	p := spec.Paper.PeriodS
	n := int(atLeast/p) + 1
	if n < 3 {
		n = 3
	}
	// Spike apps need to see whole spike cycles.
	if spec.SpikeEveryK > 0 && n < 2*spec.SpikeEveryK {
		n = 2 * spec.SpikeEveryK
	}
	return n
}
