package experiments

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/autonomic"
)

// A18's headline claims: naive Direct bakes a nonzero under-count into
// its chain and fails crash-restore-replay at every message rate; the
// drain protocol keeps DMA delivery yet drives the chain's under-count
// to zero and stays bit-exact everywhere; bounce tracks perfectly
// (silent = 0) but still loses an in-flight put crossing the line at
// put interval 1 — cut consistency fails even though tracking holds.
func TestRDMAAblation(t *testing.T) {
	rows, err := RDMAAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("got %d rows, want 12", len(rows))
	}
	for _, r := range rows {
		switch r.Regime {
		case "bounce":
			if r.DirectBypassKB != 0 || r.SilentKB != 0 {
				t.Fatalf("bounce row has DMA traffic: %+v", r)
			}
			// Exact only while no one-sided write crosses a checkpoint
			// line: at put interval 1 every line has a put in flight and
			// the restore loses it.
			if wantExact := r.PutEvery == 4; r.BitExact != wantExact {
				t.Fatalf("bounce exact=%v at put interval %d, want %v: %+v",
					r.BitExact, r.PutEvery, wantExact, r)
			}
		case "naive":
			if r.SilentKB == 0 || r.ChainSilentKB == 0 {
				t.Fatalf("naive row measured no under-count: %+v", r)
			}
			if r.BitExact {
				t.Fatalf("naive crash-restore replayed bit-exactly: %+v", r)
			}
		case "drain":
			if r.SilentKB == 0 {
				t.Fatalf("drain row saw no silent DMA writes to reconcile: %+v", r)
			}
			if r.ChainSilentKB != 0 {
				t.Fatalf("drain chain carries silent bytes: %+v", r)
			}
			if r.DrainTime <= 0 || r.RegisterTime <= 0 {
				t.Fatalf("drain row accounted no protocol cost: %+v", r)
			}
			if !r.BitExact {
				t.Fatalf("drain crash-restore diverged: %+v", r)
			}
		default:
			t.Fatalf("unknown regime %q", r.Regime)
		}
	}
	out := FormatRDMA(rows)
	for _, want := range []string{"regime", "drain phase totals (µs):", "deregister="} {
		if !strings.Contains(out, want) {
			t.Fatalf("formatted table missing %q:\n%s", want, out)
		}
	}
}

// TestDistPutDrainAnswerDependsOnSchedule is the tripwire for what
// autonomic.Reference keeps: under the drain protocol a checkpoint line
// lands in-flight puts before the next sweep, so A18's drain ring at put
// interval 1 computes a different answer when its lines are cut every 3
// iterations than every 12. The checkpoint schedule may leave the
// reference only once this stops holding.
func TestDistPutDrainAnswerDependsOnSchedule(t *testing.T) {
	var digests [2][]uint64
	for i, every := range []int{3, 12} {
		cfg := rdmaExperimentConfig(1, 1, autonomic.RDMADrain)
		cfg.CkptEvery, cfg.Faults = every, ""
		rep, err := autonomic.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Completed {
			t.Fatalf("every %d: run did not complete", every)
		}
		digests[i] = rep.SpaceDigests
	}
	if slices.Equal(digests[0], digests[1]) {
		t.Fatalf("a line every 3 and every 12 iterations end in the same digests %x", digests[0])
	}
}
