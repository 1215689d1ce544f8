package experiments

import (
	"strings"
	"testing"

	"repro/internal/workload"
)

// TestShardedRunConcurrency pins the deterministic half of A20: a
// sharded run fires the identical event set as the sequential engine,
// and its available concurrency (events over the critical path) clears
// the 2x that a multi-core host converts into wall-clock speedup.
func TestShardedRunConcurrency(t *testing.T) {
	seq, err := RunOne(workload.Sweep3D(), RunOpts{Ranks: 16, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := RunOne(workload.Sweep3D(), RunOpts{Ranks: 16, Seed: 7, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	if sh.Events != seq.Events {
		t.Fatalf("sharded fired %d events, sequential %d", sh.Events, seq.Events)
	}
	if seq.CritPathEvents != seq.Events {
		t.Fatalf("sequential critical path %d != events %d", seq.CritPathEvents, seq.Events)
	}
	if got, want := sh.IBSummary(), seq.IBSummary(); got != want {
		t.Fatalf("IB summary diverged: sharded %+v, sequential %+v", got, want)
	}
	conc := float64(sh.Events) / float64(sh.CritPathEvents)
	if conc < 2 {
		t.Fatalf("available concurrency %.2fx at 8 shards, want >= 2x (critical path %d of %d events)",
			conc, sh.CritPathEvents, sh.Events)
	}
}

func TestScalingTable(t *testing.T) {
	rows, err := ScalingTable([]workload.Spec{workload.Sweep3D()},
		RunOpts{Ranks: 8, Seed: 7}, []int{0, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Shards != 0 || rows[1].Shards != 8 {
		t.Fatalf("rows: %+v", rows)
	}
	if rows[1].Events != rows[0].Events {
		t.Fatalf("event counts diverged: %d vs %d", rows[1].Events, rows[0].Events)
	}
	if rows[0].Concurrency != 1 || rows[0].CritPathEvents != rows[0].Events {
		t.Fatalf("sequential row %+v: want concurrency 1 and the whole run on the critical path", rows[0])
	}
	if rows[1].Concurrency < 2 {
		t.Fatalf("8-shard concurrency = %.2f, want >= 2", rows[1].Concurrency)
	}
	out := FormatScaling(rows)
	for _, col := range []string{"app", "shards", "events", "crit path", "concurrency"} {
		if !strings.Contains(out, col) {
			t.Fatalf("FormatScaling missing %q column:\n%s", col, out)
		}
	}
}

func TestScalingTableRejectsMissingBaseline(t *testing.T) {
	if _, err := ScalingTable(nil, RunOpts{}, []int{1, 8}); err == nil {
		t.Fatal("want error for shardCounts without the sequential baseline")
	}
}
