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
// sweep of three). run executes the row's variant of the seed's
// smallJacobi config and returns the supervisor's report, whether the
// run kept bit-exactness, and any error. A run that errors or does not
// complete is counted, not completed, and still folds its exact verdict
// in — so a sweep whose runs may legitimately die (A14's unmirrored
// outage) returns true alongside the error. add folds a completed run's
// counters into the caller's row.
func sweepSeeds(seeds []uint64, ranks int,
	run func(autonomic.Config) (*autonomic.Report, bool, error),
	add func(*autonomic.Report)) SweepStats {
	if len(seeds) == 0 {
		seeds = []uint64{3, 5, 9}
	}
	st := SweepStats{BitExact: true}
	var effSum float64
	var downSum des.Time
	var downN int
	for _, seed := range seeds {
		st.Runs++
		rep, exact, err := run(smallJacobi(ranks, seed))
		st.BitExact = st.BitExact && exact
		if err != nil || !rep.Completed {
			continue
		}
		st.Completed++
		effSum += rep.Efficiency
		for _, ev := range rep.FailureLog {
			downSum += ev.Downtime
			downN++
		}
		add(rep)
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

// runAgainstReference is a sweepSeeds run: cfg supervised, judged
// bit for bit against its (memoised) autonomic.Reference. The storage
// tier winning — an unmirrored outage, an exhausted failure budget — is
// a legitimate outcome, recorded as an incomplete run rather than a
// divergence, so a run that errors keeps its exact verdict.
func runAgainstReference(cfg autonomic.Config) (*autonomic.Report, bool, error) {
	rep, err := autonomic.Run(cfg)
	if err != nil {
		return nil, true, err
	}
	ref, err := autonomic.Reference(cfg)
	if err != nil {
		return rep, false, err
	}
	return rep, autonomic.Compare(ref, rep).BitExact(), nil
}

// yesNo renders a verdict column.
func yesNo(v bool) string {
	if v {
		return "yes"
	}
	return "no"
}
