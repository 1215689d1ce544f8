package experiments

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/mem"
	"repro/internal/migrate"
	"repro/internal/workload"
)

// MigrationRow is one live-migration trigger phase.
type MigrationRow struct {
	Phase string
	// Rounds is the number of pre-copy rounds before cutover.
	Rounds int
	// TotalGB is the total traffic (footprint + re-copied deltas).
	TotalGB float64
	// DowntimeMs is the stop-and-copy pause.
	DowntimeMs float64
	Converged  bool
}

// MigrationPhases live-migrates a Sage-1000MB rank over the QsNet link,
// triggered either at the start of a processing burst or at the start of
// the quiet communication window — §6.2's placement argument applied to
// the *other* consumer of dirty-page tracking. Migrating against the
// write burst needs more pre-copy rounds and a longer pause; migrating in
// the window converges almost immediately.
func MigrationPhases(opts RunOpts) ([]MigrationRow, error) {
	spec := workload.Sage1000MB()
	opts = opts.withDefaults()
	phases := []struct {
		name string
		frac float64 // offset into the iteration, as a period fraction
	}{
		{"processing burst", 0.05},
		{"communication window", spec.BurstFrac + 0.05},
	}
	var rows []MigrationRow
	for _, ph := range phases {
		r, err := workload.New(spec, workload.Config{Ranks: opts.Ranks, Seed: opts.Seed})
		if err != nil {
			return nil, err
		}
		if err := r.RunToIterZero(); err != nil {
			return nil, err
		}
		dst := mem.NewAddressSpace(mem.Config{PageSize: r.Space(0).PageSize(), Phantom: true})
		m, err := migrate.New(r.Eng, r.Space(0), dst)
		if err != nil {
			return nil, err
		}
		period := spec.PeriodAt(opts.Ranks)
		trigger := r.Eng.Now() + period + des.Time(float64(period)*ph.frac)
		var res migrate.Result
		done := false
		r.Eng.Schedule(trigger, func() {
			if err := m.Run(func(rr migrate.Result, _ error) {
				res = rr
				done = true
			}); err != nil {
				panic(err)
			}
		})
		r.Run(trigger + 2*period)
		if !done {
			return nil, fmt.Errorf("experiments: migration (%s) did not complete", ph.name)
		}
		rows = append(rows, MigrationRow{
			Phase:      ph.name,
			Rounds:     len(res.Rounds),
			TotalGB:    float64(res.TotalBytes) / 1e9,
			DowntimeMs: res.Downtime.Seconds() * 1000,
			Converged:  res.Converged,
		})
	}
	return rows, nil
}

// FormatMigration renders the comparison as fixed-width text.
func FormatMigration(rows []MigrationRow) string {
	s := fmt.Sprintf("%-24s %8s %10s %14s %10s\n", "trigger phase", "rounds", "total GB", "downtime (ms)", "converged")
	for _, r := range rows {
		s += fmt.Sprintf("%-24s %8d %10.2f %14.1f %10v\n", r.Phase, r.Rounds, r.TotalGB, r.DowntimeMs, r.Converged)
	}
	return s
}
