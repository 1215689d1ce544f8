package experiments

import (
	"repro/internal/autonomic"
	"repro/internal/des"
	"repro/internal/storage"
)

// The supervised ablations (A14 storage faults, A15 cluster faults, A16
// chaos replay, A21 multi-level) all sweep the same small distributed
// Jacobi run over a handful of failure seeds and aggregate each row the
// same way. This file holds that run and that aggregation once.

// SweepStats is the seed-sweep aggregate every supervised-ablation row
// embeds.
type SweepStats struct {
	// Runs and Completed count the seed sweep; a run that dies (sink
	// unreachable, failure budget exhausted) is counted but not
	// completed.
	Runs, Completed int
	// BitExact reports that at least one run completed and none lost
	// bit-exactness against its failure-free reference.
	BitExact bool
	// MeanEfficiency averages end-to-end efficiency over completed runs.
	MeanEfficiency float64
	// MeanDowntime averages per-failure downtime (detection through
	// respawn) across all failures of all completed runs.
	MeanDowntime des.Time
}

// nfsClassSink is slow enough to widen each commit window to ~0.2 s, so
// seeded failures genuinely land inside two-phase rounds.
var nfsClassSink = storage.Model{Name: "nfs-class", Latency: 5 * des.Millisecond, Bandwidth: 2e4}

// smallJacobi is the supervised run every sweep repeats: small enough to
// sweep, long enough for several node failures.
func smallJacobi(ranks int, seed uint64) autonomic.Config {
	return autonomic.Config{
		Ranks:           ranks,
		Nx:              32,
		RowsPerRank:     8,
		Boundary:        9,
		Iterations:      40,
		CkptEvery:       5,
		ComputeTime:     200 * des.Millisecond,
		RestartOverhead: 500 * des.Millisecond,
		Seed:            seed,
	}
}

// sweepSeeds aggregates one row over the failure seeds (nil → a default
// sweep of three). cell turns the seed's smallJacobi config into the
// row's, and autonomic.ValidateReplay judges it against its
// autonomic.Reference. A run that errors or does not complete is counted, not
// completed; an error keeps the row's exact verdict only when mayDie
// says the injected run may legitimately die (A14's unmirrored outage,
// an exhausted failure budget), and breaks it otherwise. add folds a
// completed run's outcome into the caller's row.
func sweepSeeds(seeds []uint64, ranks int, mayDie bool,
	cell func(autonomic.Config) autonomic.Config,
	add func(*autonomic.ReplayOutcome)) SweepStats {
	if len(seeds) == 0 {
		seeds = []uint64{3, 5, 9}
	}
	st := SweepStats{BitExact: true}
	var effSum float64
	var downSum des.Time
	var downN int
	for _, seed := range seeds {
		st.Runs++
		out, err := autonomic.ValidateReplay(cell(smallJacobi(ranks, seed)))
		if err != nil {
			st.BitExact = st.BitExact && mayDie
			continue
		}
		st.BitExact = st.BitExact && out.BitExact()
		rep := out.Injected
		if !rep.Completed {
			continue
		}
		st.Completed++
		effSum += rep.Efficiency
		for _, ev := range rep.FailureLog {
			downSum += ev.Downtime
			downN++
		}
		add(out)
	}
	if st.Completed > 0 {
		st.MeanEfficiency = effSum / float64(st.Completed)
	} else {
		st.BitExact = false
	}
	if downN > 0 {
		st.MeanDowntime = downSum / des.Time(downN)
	}
	return st
}

// yesNo renders a verdict column.
func yesNo(v bool) string {
	if v {
		return "yes"
	}
	return "no"
}
