package autonomic

import (
	"fmt"
	"testing"

	"repro/internal/des"
	"repro/internal/storage"
)

// clusterConfig is a run long enough (and with commit windows wide
// enough) that seeded failures land both between and inside checkpoint
// rounds.
func clusterConfig() Config {
	return Config{
		Ranks:       4,
		Nx:          32,
		RowsPerRank: 8,
		Boundary:    7,
		Iterations:  40,
		CkptEvery:   5,
		ComputeTime: 200 * des.Millisecond,
		// ~0.5 MB of pages per line at SCSI bandwidth keeps the commit
		// window wide relative to MTBF.
		Faults:          "crash every exp 6s",
		RestartOverhead: 500 * des.Millisecond,
		Seed:            11,
	}
}

// TestTwoPhaseMidCheckpointFailure drives the supervisor until a seeded
// failure lands inside a two-phase commit window, then checks the core
// guarantee: the aborted line is never trusted, recovery falls back to a
// committed line, and the final answer is still bit-exact.
func TestTwoPhaseMidCheckpointFailure(t *testing.T) {
	cfg := clusterConfig()
	// A 20 KB/s sink stretches each commit window to ~0.2s, so seeded
	// failures actually land inside prepare/commit rounds.
	cfg.Sink = storage.Model{Name: "slow", Latency: 5 * des.Millisecond, Bandwidth: 2e4}
	want := referenceChecksum(t, cfg)
	cfg.TwoPhaseCommit = true

	// Scan seeds for one whose failure schedule hits a commit window;
	// every run must stay correct whether or not an abort occurred.
	sawAbort := false
	for seed := uint64(1); seed <= 20; seed++ {
		cfg.Seed = seed
		rep, err := Run(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !rep.Completed || rep.Checksum != want {
			t.Fatalf("seed %d: completed=%v checksum=%v want %v",
				seed, rep.Completed, rep.Checksum, want)
		}
		if rep.Recoveries != rep.Failures {
			t.Fatalf("seed %d: %d recoveries for %d failures", seed, rep.Recoveries, rep.Failures)
		}
		if rep.AbortedCommits > 0 {
			sawAbort = true
		}
	}
	if !sawAbort {
		t.Fatal("no seed produced a mid-checkpoint failure; widen the window")
	}
}

// TestAbortedCommitsVsCheckpointFailures pins the accounting split: a
// prepare-phase storage refusal is a CheckpointFailure, a post-prepare
// rollback is an AbortedCommit, and the two never bleed together.
func TestAbortedCommitsVsCheckpointFailures(t *testing.T) {
	// Outage store, no failures: every round after the outage is refused
	// in prepare. AbortedCommits must stay zero.
	cfg := clusterConfig()
	// 8 rounds of 4 segment Puts + 1 marker Put = 40 ops total; a
	// boundary of 18 lands the outage mid-prepare of round 4.
	cfg.Faults = "storage-decay die-after 18"
	cfg.TwoPhaseCommit = true
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed {
		t.Fatal("outage run did not complete")
	}
	if rep.CheckpointFailures == 0 {
		t.Fatal("outage produced no prepare refusals")
	}
	if rep.AbortedCommits != 0 {
		t.Fatalf("prepare refusals counted as aborts: %d", rep.AbortedCommits)
	}

	// Healthy store, failures on: rollbacks inside commit windows are
	// AbortedCommits, and none may masquerade as storage refusals.
	cfg = clusterConfig()
	cfg.Sink = storage.Model{Name: "slow", Latency: 5 * des.Millisecond, Bandwidth: 2e4}
	cfg.TwoPhaseCommit = true
	total := 0
	for seed := uint64(1); seed <= 20; seed++ {
		cfg.Seed = seed
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rep.CheckpointFailures != 0 {
			t.Fatalf("seed %d: healthy store refused %d prepares", seed, rep.CheckpointFailures)
		}
		total += rep.AbortedCommits
	}
	if total == 0 {
		t.Fatal("no aborted commits across 20 seeds")
	}
}

// TestDetectionLatencyMeasured runs with the heartbeat detector and
// checks that each failure's detection latency is a *measured* quantity:
// present per failure, bounded by the protocol (silence must exceed the
// timeout; the check tick quantises on the period), and reflected in the
// elapsed time as real downtime.
func TestDetectionLatencyMeasured(t *testing.T) {
	cfg := clusterConfig()
	want := referenceChecksum(t, cfg)
	period := 50 * des.Millisecond
	cfg.HeartbeatPeriod = period
	timeout := 4 * period

	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed || rep.Checksum != want {
		t.Fatalf("completed=%v checksum=%v want %v", rep.Completed, rep.Checksum, want)
	}
	if rep.Failures == 0 {
		t.Fatal("no failures injected")
	}
	if len(rep.DetectionLatencies) != rep.Failures {
		t.Fatalf("%d latencies for %d failures", len(rep.DetectionLatencies), rep.Failures)
	}
	for i, l := range rep.DetectionLatencies {
		if l < timeout-period || l > timeout+2*period {
			t.Fatalf("latency[%d] = %v outside [%v, %v]", i, l, timeout-period, timeout+2*period)
		}
	}

	// The same run without the detector recovers instantly on failure;
	// with it, each failure's downtime grows by its detection latency.
	cfg2 := cfg
	cfg2.HeartbeatPeriod = 0
	rep2, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Failures == rep.Failures && rep.Elapsed <= rep2.Elapsed {
		t.Fatalf("detector added no downtime: %v vs %v", rep.Elapsed, rep2.Elapsed)
	}
}

// TestFullClusterFaultsDeterministic turns everything on at once — flaky
// interconnect, heartbeat detection, two-phase commit, node failures —
// and requires a bit-exact answer and a bit-identical replay.
func TestFullClusterFaultsDeterministic(t *testing.T) {
	cfg := clusterConfig()
	want := referenceChecksum(t, cfg)
	cfg.TwoPhaseCommit = true
	cfg.HeartbeatPeriod = 50 * des.Millisecond
	flaky := func(seed uint64) string {
		return fmt.Sprintf("crash every exp 6s\nnet loss 0.05 dup 0.01 jitter 200us seed %d", seed)
	}
	cfg.Faults = flaky(cfg.Seed)

	run := func() *Report {
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	rep := run()
	if !rep.Completed || rep.Checksum != want {
		t.Fatalf("completed=%v checksum=%v want %v", rep.Completed, rep.Checksum, want)
	}
	if rep.Failures == 0 || rep.Recoveries != rep.Failures {
		t.Fatalf("failures=%d recoveries=%d", rep.Failures, rep.Recoveries)
	}
	if len(rep.DetectionLatencies) != rep.Failures {
		t.Fatalf("%d latencies for %d failures", len(rep.DetectionLatencies), rep.Failures)
	}
	rep2 := run()
	if fmt.Sprintf("%+v", rep) != fmt.Sprintf("%+v", rep2) {
		t.Fatalf("non-deterministic cluster run:\n  %+v\nvs\n  %+v", rep, rep2)
	}

	// A different seed must explore a different fault schedule.
	cfg.Seed++
	cfg.Faults = flaky(cfg.Seed)
	rep3 := run()
	if !rep3.Completed || rep3.Checksum != want {
		t.Fatalf("reseeded run wrong: %+v", rep3)
	}
	if fmt.Sprintf("%+v", rep) == fmt.Sprintf("%+v", rep3) {
		t.Fatal("different seed replayed the identical run")
	}
}
