package workload

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/des"
	"repro/internal/mem"
)

// TestHeldSweepsMatchTickByTick: holding the sub-bursts of ranks nobody
// was handed changes how many events run, not what they write. For every
// spec at 4 ranks, on the sequential engine and on two shards, a runner
// with every rank handed out at New (every sweep tick by tick) and one with
// only rank 0 handed out (ranks 1-3 held) agree on each space's written
// bytes, footprint and digest after every Run window. Rank 2 is handed out
// mid-burst, after Steps to the same event in both runners: the dirty log
// opened on it then sees the same pages fault in both.
func TestHeldSweepsMatchTickByTick(t *testing.T) {
	const ranks = 4
	for _, shards := range []int{0, 2} {
		for _, spec := range All() {
			t.Run(fmt.Sprintf("%s/shards%d", spec.Name, shards), func(t *testing.T) {
				build := func(handOut int) *Runner {
					r, err := New(spec, Config{Ranks: ranks, Seed: 7, Shards: shards})
					if err != nil {
						t.Fatal(err)
					}
					for i := 0; i < handOut; i++ {
						r.Space(i)
					}
					return r
				}
				open, held := build(ranks), build(1)
				runners := []*Runner{open, held}
				same := func(when string, all bool) {
					t.Helper()
					for i := 0; i < ranks; i++ {
						if !all && i != 0 && i != 2 {
							continue // still held mid-run
						}
						a, b := open.spaces[i], held.spaces[i]
						if a.WrittenBytes() != b.WrittenBytes() || a.Footprint() != b.Footprint() || a.Digest(nil) != b.Digest(nil) {
							t.Fatalf("%s, rank %d: written/footprint/digest %d/%d/%x tick by tick, %d/%d/%x held",
								when, i, a.WrittenBytes(), a.Footprint(), a.Digest(nil), b.WrittenBytes(), b.Footprint(), b.Digest(nil))
						}
					}
				}
				period, burst := spec.PeriodAt(ranks), spec.BurstDuration(ranks)

				for _, r := range runners {
					r.Run(r.InitTail())
				}
				same("after init", true)
				for _, r := range runners {
					r.Run(r.initEstimate() + period/3)
				}
				same("a third into iteration 0", true)

				// Step both runners to the same event, half-way through the
				// next burst, and hand rank 2 out there.
				mark := open.Now() + period - period/3 + burst/2
				var logs []*mem.DirtyLog
				for _, r := range runners {
					marked := false
					r.Eng.Schedule(mark, func() { marked = true })
					for !marked && r.Eng.Step() {
					}
					log := mem.NewDirtyLog(r.Space(2))
					log.Open()
					logs = append(logs, log)
				}
				same("rank 2 handed out mid-burst", false)

				for w := 1; w <= 3; w++ {
					for _, r := range runners {
						r.Run(mark + des.Time(w)*period/2)
					}
					same(fmt.Sprintf("window %d after the hand-out", w), true)
					if a, b := logs[0], logs[1]; a.Count() != b.Count() || a.Faults() != b.Faults() {
						t.Fatalf("window %d: rank 2's log has %d pages, %d faults tick by tick; %d, %d held", w, a.Count(), a.Faults(), b.Count(), b.Faults())
					}
				}
				if logs[1].Faults() == 0 {
					t.Fatal("rank 2's log saw no writes after the hand-out: the check is vacuous")
				}
				if held.Eng.Fired() >= open.Eng.Fired() {
					t.Fatalf("held runner fired %d events, tick by tick %d: nothing was held", held.Eng.Fired(), open.Eng.Fired())
				}
			})
		}
	}
}

// TestSideDoorProtectionPanics: a rank's sweeps run held until Runner.Space
// hands its space out, so a dirty log opened through the World's side door
// would miss the ticks it was opened for. The first held tick to find a
// write fault on the space panics instead.
func TestSideDoorProtectionPanics(t *testing.T) {
	r, err := New(tiny(), Config{Ranks: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	mem.NewDirtyLog(r.World.Rank(1).Space()).Open()
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "rank 1") || !strings.Contains(msg, "never handed out") {
			t.Fatalf("recovered %q, want the side-door panic for rank 1", msg)
		}
	}()
	r.Run(r.durationFor(2))
}
