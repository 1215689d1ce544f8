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
	"repro/internal/ckpt"
	"repro/internal/ckptstore"
	"repro/internal/des"
	"repro/internal/experiments"
	"repro/internal/storage"
)

func benchRanks() int {
	if v := os.Getenv("REPRO_BENCH_RANKS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return 16
}

// BenchmarkArtefact regenerates every artefact of
// experiments.Artefacts as BenchmarkArtefact/<name> and reports its
// headline metrics.
func BenchmarkArtefact(b *testing.B) {
	for _, a := range experiments.Artefacts {
		opts := experiments.RunOpts{Ranks: benchRanks(), Seed: 7}
		if a.BenchRanks > 0 {
			opts.Ranks = min(opts.Ranks, a.BenchRanks)
		}
		b.Run(a.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := a.Run(opts)
				if err != nil {
					b.Fatal(err)
				}
				for _, m := range res.Metrics {
					b.ReportMetric(m.Value, m.Name)
				}
			}
		})
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

// BenchmarkServiceHandlePut is the ckptstore rung of the ladder: one
// 64 KB put frame through Service.Handle — decode, admission, and
// whatever the durability level copies — on each of the three paths a
// saturated or faulted service takes. sync replicates to three
// in-memory replicas (three payload copies), shed is refused by the
// admission controller (none), spill lands in the journal with every
// replica down (one). B/op is the number to read: it is the payload
// bytes the service moves per put it handles.
func BenchmarkServiceHandlePut(b *testing.B) {
	payload := make([]byte, 64<<10)
	for i := range payload {
		payload[i] = byte(i)
	}
	req := (&ckptstore.Frame{Kind: ckptstore.KindRequest, Op: ckptstore.OpPut, Client: 1, ID: 1, Key: ckpt.SegmentKey(0, 1), Payload: payload}).Encode()
	for _, path := range []struct {
		name   string
		budget uint64 // in-flight budget; 0 = the default, which never sheds here
		crash  bool   // take every replica down first
		want   ckptstore.Status
	}{
		{name: "sync", want: ckptstore.StatusOK},
		{name: "shed", budget: uint64(len(payload)) / 2, want: ckptstore.StatusOverload},
		{name: "spill", crash: true, want: ckptstore.StatusOK},
	} {
		b.Run(path.name, func(b *testing.B) {
			eng := des.NewEngine()
			replicas := []storage.Store{storage.NewMemStore(), storage.NewMemStore(), storage.NewMemStore()}
			svc, err := ckptstore.New(ckptstore.Config{Engine: eng, Replicas: replicas, InFlightBudget: path.budget})
			if err != nil {
				b.Fatal(err)
			}
			defer svc.Close()
			if path.crash {
				for i := range replicas {
					svc.Crash(i)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp, err := svc.Handle(req)
				if err != nil {
					b.Fatal(err)
				}
				r, err := ckptstore.DecodeFrame(resp)
				if err != nil || r.Status != path.want {
					b.Fatalf("status %d (%v), want %d", r.Status, err, path.want)
				}
				// Close the batch window and retire the in-flight bytes so
				// every put meets an idle service; the engine's tickers
				// allocate nothing.
				eng.Run(eng.Now() + des.Second)
			}
		})
	}
}
