// Benchmark harness: one sub-benchmark per table, figure and ablation of
// the evaluation (experiments.Artefacts), plus the supervisor benchmarks
// below. Each regenerates its artefact end to end on the simulated
// substrate and reports the headline quantities as custom metrics, so
//
//	go test -bench=. -benchmem
//
// both exercises the full pipeline and prints paper-comparable numbers.
// Rank count defaults to 16 to keep the suite quick; set
// REPRO_BENCH_RANKS=64 to regenerate at the paper's full scale.
package repro

import (
	"os"
	"strconv"
	"testing"

	"repro/internal/autonomic"
	"repro/internal/des"
	"repro/internal/experiments"
)

func benchRanks() int {
	if v := os.Getenv("REPRO_BENCH_RANKS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return 16
}

// BenchmarkArtefact regenerates every deterministic artefact of
// experiments.Artefacts as BenchmarkArtefact/<name> and reports its
// headline metrics. Artefacts flagged BenchShards add a /shards8
// sub-benchmark on an 8-shard parallel engine: virtual-time output is
// bit-identical to the sequential run, only host wall-clock differs, and
// cmd/benchjson derives speedup_vs_seq from the pair.
func BenchmarkArtefact(b *testing.B) {
	for _, a := range experiments.Artefacts {
		if !a.InAll {
			continue
		}
		opts := experiments.RunOpts{Ranks: benchRanks(), Seed: 7}
		if a.BenchRanks > 0 {
			opts.Ranks = min(opts.Ranks, a.BenchRanks)
		}
		run := func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := a.Run(opts)
				if err != nil {
					b.Fatal(err)
				}
				for _, m := range res.Metrics {
					b.ReportMetric(m.Value, m.Name)
				}
			}
		}
		b.Run(a.Name, run)
		if a.BenchShards {
			opts.Shards = 8
			b.Run(a.Name+"/shards8", run)
		}
	}
}

// BenchmarkSelfHealing runs the end-to-end autonomic loop (§1): a
// distributed computation surviving injected failures via coordinated
// incremental checkpointing, with measured (not modelled) efficiency.
func BenchmarkSelfHealing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := autonomic.Run(autonomic.Config{
			Ranks: 8, Nx: 64, RowsPerRank: 16, Boundary: 100,
			Iterations: 60, CkptEvery: 5,
			ComputeTime: 250 * des.Millisecond,
			MTBF:        4 * des.Second, RestartOverhead: des.Second,
			Seed: 11,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Completed {
			b.Fatal("run incomplete")
		}
		b.ReportMetric(float64(rep.Failures), "failures_survived")
		b.ReportMetric(rep.Efficiency*100, "measured_efficiency_pct")
	}
}

// BenchmarkHeartbeatOverhead measures what gossip failure detection
// costs an otherwise failure-free run: the same supervised computation
// with and without heartbeats, reporting the efficiency delta and the
// detector's virtual message load folded into elapsed time.
func BenchmarkHeartbeatOverhead(b *testing.B) {
	base := autonomic.Config{
		Ranks: 8, Nx: 64, RowsPerRank: 16, Boundary: 100,
		Iterations: 40, CkptEvery: 5,
		ComputeTime: 250 * des.Millisecond,
		Seed:        11,
	}
	for i := 0; i < b.N; i++ {
		plain, err := autonomic.Run(base)
		if err != nil {
			b.Fatal(err)
		}
		withHB := base
		withHB.HeartbeatPeriod = 20 * des.Millisecond
		hb, err := autonomic.Run(withHB)
		if err != nil {
			b.Fatal(err)
		}
		if plain.Checksum != hb.Checksum {
			b.Fatal("heartbeats perturbed the computation")
		}
		b.ReportMetric(hb.Efficiency*100, "efficiency_with_hb_pct")
		b.ReportMetric((plain.Efficiency-hb.Efficiency)*100, "hb_overhead_pct_points")
	}
}

// BenchmarkTwoPhaseCommit measures the prepare/commit protocol against
// plain coordinated checkpointing on the identical failure schedule:
// the extra commit latency paid per line and the aborted rounds that
// bought mid-checkpoint safety.
func BenchmarkTwoPhaseCommit(b *testing.B) {
	base := autonomic.Config{
		Ranks: 8, Nx: 64, RowsPerRank: 16, Boundary: 100,
		Iterations: 40, CkptEvery: 5,
		ComputeTime: 250 * des.Millisecond,
		MTBF:        4 * des.Second, RestartOverhead: des.Second,
		Seed: 11,
	}
	for i := 0; i < b.N; i++ {
		plain, err := autonomic.Run(base)
		if err != nil {
			b.Fatal(err)
		}
		tpc := base
		tpc.TwoPhaseCommit = true
		rep, err := autonomic.Run(tpc)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Completed || rep.Checksum != plain.Checksum {
			b.Fatal("two-phase run diverged")
		}
		b.ReportMetric(rep.CommitTime.Seconds(), "commit_time_s")
		b.ReportMetric(float64(rep.AbortedCommits), "aborted_commits")
		b.ReportMetric(rep.Efficiency*100, "efficiency_pct")
	}
}
