package workload_test

import (
	"testing"

	"repro/internal/des"
	"repro/internal/tracker"
	"repro/internal/workload"
)

// BenchmarkNineAppMeasure is the paper's measurement as one op, in
// experiments.RunOne's shape at its defaults: each of the nine
// applications at 64 ranks, a tracker on rank 0 at 1 s timeslices, run to
// iteration 0, then a window of at least three periods and six slices,
// whole slices. Only rank 0 is handed out, so the other 63 ranks are the
// observation-free path. events/op is the engine's Fired() summed over
// the nine runs, construction included: deterministic, so it must repeat
// exactly. It uses only the packages' exported API, so the same file
// measures an older commit.
func BenchmarkNineAppMeasure(b *testing.B) {
	const ranks = 64
	var events uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, spec := range workload.All() {
			r, err := workload.New(spec, workload.Config{Ranks: ranks, Seed: 7})
			if err != nil {
				b.Fatal(err)
			}
			tr, err := tracker.New(r.Eng, r.Space(0), tracker.Options{Timeslice: des.Second})
			if err != nil {
				b.Fatal(err)
			}
			tr.AttachRank(r.World, 0)
			if err := r.RunToIterZero(); err != nil {
				b.Fatal(err)
			}
			tr.Start()
			period := spec.PeriodAt(ranks)
			dur := max(3*period, (6*des.Second+period-1)/period*period)
			r.Run(r.Now() + dur/des.Second*des.Second)
			tr.Stop()
			if len(tr.Samples()) == 0 {
				b.Fatalf("%s: the tracker took no sample", spec.Name)
			}
			events += r.Eng.Fired()
		}
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}
