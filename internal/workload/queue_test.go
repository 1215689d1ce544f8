package workload

import (
	"slices"
	"testing"
)

// TestEventQueueStaysShallow pins what the event series buy the paper's
// largest run: with every sweep and every iteration's sends held as one
// queue entry each, Sage-1000MB at 64 ranks never has more than a few
// entries per rank queued. Scheduling each tick and send up front peaked at
// 89,153.
func TestEventQueueStaysShallow(t *testing.T) {
	r, err := New(Sage1000MB(), Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if r.Cfg.Ranks != 64 {
		t.Fatalf("reference rank count = %d, want the paper's 64", r.Cfg.Ranks)
	}
	peak := 0
	for r.iterations() < 2 && r.Eng.Step() {
		peak = max(peak, r.Eng.Pending())
	}
	if r.iterations() < 2 {
		t.Fatal("run ended before two iterations completed")
	}
	t.Logf("peak queue depth %d entries over %d events", peak, r.Eng.Fired())
	if peak > 1000 {
		t.Fatalf("peak queue depth %d entries, want <= 1000", peak)
	}
}

// TestSendOffsetsMonotone: every spec's send schedule is non-decreasing at
// small, reference and large scale — the precondition of holding an
// iteration's sends as one series (des.NewOffsets panics on a decreasing
// list, so New would) — and stays inside the iteration's communication
// window.
func TestSendOffsetsMonotone(t *testing.T) {
	for _, s := range append(All(), tiny()) {
		for _, ranks := range []int{2, 8, s.RefRanks, 4 * s.RefRanks} {
			r, err := New(s, Config{Ranks: ranks})
			if err != nil {
				t.Fatal(err)
			}
			at := sendOffsets(s, ranks, r.apps[0].nMsgs)
			if len(at) != r.apps[0].nMsgs {
				t.Fatalf("%s/%d: %d offsets for %d messages", s.Name, ranks, len(at), r.apps[0].nMsgs)
			}
			if !slices.IsSorted(at) {
				t.Errorf("%s/%d: send offsets decrease", s.Name, ranks)
			}
			if n := len(at); n > 0 && (at[0] < s.BurstDuration(ranks) || at[n-1] >= s.PeriodAt(ranks)) {
				t.Errorf("%s/%d: sends at %v..%v leave the window %v..%v", s.Name, ranks, at[0], at[n-1], s.BurstDuration(ranks), s.PeriodAt(ranks))
			}
		}
	}
}
