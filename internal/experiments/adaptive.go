package experiments

import (
	"fmt"

	"repro/internal/adaptive"
	"repro/internal/ckpt"
	"repro/internal/des"
	"repro/internal/storage"
	"repro/internal/tracker"
	"repro/internal/workload"
)

// AdaptiveRow compares fixed-cadence coordinated checkpointing against
// the adaptive quiet-window aligner at the same mean interval.
type AdaptiveRow struct {
	Policy      string
	Checkpoints int
	VolumeMB    float64 // delta payload across all checkpoints
	CowMB       float64 // pre-image copies during drains
	QuietShare  float64 // fraction of triggers landing in quiet slices
	MeanDeferS  float64 // mean trigger slip past the due time
}

// AdaptiveAlignment runs Sage-1000MB twice with a checkpoint interval
// deliberately incommensurate with the 145 s iteration (so fixed triggers
// drift through all phases): once on a fixed cadence and once under the
// adaptive aligner, which defers triggers into the quiet communication
// windows it detects from the live IWS signal. The aligner realises the
// paper's §6.2 proposal: same cadence, a fraction of the copy-on-write
// traffic, smaller deltas.
func AdaptiveAlignment(opts RunOpts, interval des.Time) ([]AdaptiveRow, error) {
	if interval == 0 {
		interval = 45 * des.Second
	}
	spec := workload.Sage1000MB()
	opts = opts.withDefaults()
	run := func(adapt bool) (AdaptiveRow, error) {
		name := "fixed cadence"
		if adapt {
			name = "quiet-window aligned"
		}
		r, err := workload.New(spec, workload.Config{Ranks: opts.Ranks, Seed: opts.Seed})
		if err != nil {
			return AdaptiveRow{}, err
		}
		if err := r.RunToIterZero(); err != nil {
			return AdaptiveRow{}, err
		}
		c, err := ckpt.NewCheckpointer(r.Eng, r.Space(0), ckpt.Options{
			Store:    storage.NewMemStore(),
			Sink:     storage.SCSISink(),
			TrackCow: true,
		})
		if err != nil {
			return AdaptiveRow{}, err
		}
		c.Exclude(r.World.BounceRegion(0))
		c.Start()
		if _, err := c.Checkpoint(); err != nil { // baseline full, uncounted
			return AdaptiveRow{}, err
		}

		row := AdaptiveRow{Policy: name}
		var volume uint64
		trigger := func() {
			res, err := c.Checkpoint()
			if err != nil {
				panic(err)
			}
			row.Checkpoints++
			volume += res.PageBytes
		}

		// Both policies carry the same 1 s instrumentation so the CoW
		// accounting is symmetric; only the adaptive run also feeds the
		// aligner.
		var al *adaptive.Aligner
		if adapt {
			al, err = adaptive.New(r.Eng, adaptive.Options{Interval: interval}, trigger)
			if err != nil {
				return AdaptiveRow{}, err
			}
		}
		tr, err := tracker.New(r.Eng, r.Space(0), tracker.Options{
			Timeslice: des.Second,
			OnSample: func(s tracker.Sample) {
				if al != nil {
					al.Feed(s)
				}
			},
		})
		if err != nil {
			return AdaptiveRow{}, err
		}
		tr.Start()
		if adapt {
			al.Start()
		} else {
			r.Eng.NewTicker(interval, func(des.Time) { trigger() })
		}
		r.Run(r.Eng.Now() + des.Time(max(opts.Periods, 3))*spec.PeriodAt(opts.Ranks))
		tr.Stop()

		row.VolumeMB = float64(volume) / MB
		row.CowMB = float64(c.Stats().CowCopyBytes) / MB
		if adapt {
			st := al.Stats()
			if st.Fired > 0 {
				row.QuietShare = float64(st.FiredQuiet) / float64(st.Fired)
				row.MeanDeferS = st.TotalDefer.Seconds() / float64(st.Fired)
			}
		} else if row.Checkpoints > 0 {
			// Fixed triggers: count how many landed in quiet slices by
			// proxy — not tracked; leave QuietShare at zero.
			row.QuietShare = -1 // not applicable
		}
		return row, nil
	}
	fixed, err := run(false)
	if err != nil {
		return nil, err
	}
	adaptiveRow, err := run(true)
	if err != nil {
		return nil, err
	}
	return []AdaptiveRow{fixed, adaptiveRow}, nil
}

// FormatAdaptive renders the comparison.
func FormatAdaptive(rows []AdaptiveRow) string {
	s := fmt.Sprintf("%-24s %8s %12s %10s %12s %12s\n",
		"policy", "ckpts", "volume MB", "CoW MB", "quiet share", "mean defer")
	for _, r := range rows {
		qs := "n/a"
		if r.QuietShare >= 0 {
			qs = fmt.Sprintf("%.0f%%", r.QuietShare*100)
		}
		s += fmt.Sprintf("%-24s %8d %12.1f %10.1f %12s %11.1fs\n",
			r.Policy, r.Checkpoints, r.VolumeMB, r.CowMB, qs, r.MeanDeferS)
	}
	return s
}
