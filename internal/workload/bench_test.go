package workload

import (
	"testing"

	"repro/internal/des"
	"repro/internal/mem"
)

// BenchmarkObservedSweep is the workload rung for observed ranks' sweeps,
// in core.Protect's shape without its captures: Sage-1000MB's model at 8
// ranks, every rank handed out under an open DirtyLog that is reset every
// 10 s, run for two periods from iteration 0. The model's ring messages
// are left out (CommMB 0), so the rung measures the sweep path alone
// (BenchmarkObservedRing leaves them in). events/op is the engine's
// Fired() over the run — sweep events, the transient arena's map and
// unmap, the reductions and the resets — and ns/op and allocs/op cover
// the run alone.
func BenchmarkObservedSweep(b *testing.B) { benchObserved(b, false) }

// BenchmarkObservedRing is BenchmarkObservedSweep's shape with
// Sage-1000MB's ring messages left in: every link runs into an observed
// rank, whose deposits the resets settle (on the message path each
// message is three events: its send, NIC landing and copy end).
func BenchmarkObservedRing(b *testing.B) { benchObserved(b, true) }

func benchObserved(b *testing.B, messages bool) {
	const ranks = 8
	spec, err := ByName("Sage-1000MB")
	if err != nil {
		b.Fatal(err)
	}
	if !messages {
		spec.CommMB = 0
	}
	var events uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r, err := New(spec, Config{Ranks: ranks, Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		if err := r.RunToIterZero(); err != nil {
			b.Fatal(err)
		}
		logs := make([]*mem.DirtyLog, ranks)
		for j := range logs {
			logs[j] = mem.NewDirtyLog(r.Space(j))
			logs[j].Open()
		}
		reset := r.Eng.NewTicker(10*des.Second, func(des.Time) {
			for _, l := range logs {
				l.Reset()
			}
		})
		before := r.Eng.Fired()
		b.StartTimer()
		r.Run(r.Now() + 2*spec.PeriodAt(ranks))
		b.StopTimer()
		reset.Stop()
		events += r.Eng.Fired() - before
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}
