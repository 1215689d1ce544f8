package autonomic

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/des"
	"repro/internal/storage"
)

// referenceChecksum runs the computation with no failures and no
// checkpoint overhead variation — the ground truth answer.
func referenceChecksum(t *testing.T, cfg Config) float64 {
	t.Helper()
	clean := cfg
	clean.Faults = ""
	rep, err := Run(clean)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed {
		t.Fatal("reference run did not complete")
	}
	return rep.Checksum
}

func baseConfig() Config {
	return Config{
		Ranks:       4,
		Nx:          32,
		RowsPerRank: 8,
		Boundary:    9,
		Iterations:  40,
		CkptEvery:   5,
		ComputeTime: 200 * des.Millisecond,
		Seed:        3,
	}
}

func TestRunWithoutFailures(t *testing.T) {
	rep, err := Run(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed || rep.Iterations != 40 {
		t.Fatalf("report: %+v", rep)
	}
	if rep.Failures != 0 || rep.Recoveries != 0 || rep.LostIterations != 0 {
		t.Fatalf("phantom failures: %+v", rep)
	}
	// Efficiency below 1 (checkpoint commits) but high.
	if rep.Efficiency <= 0.5 || rep.Efficiency >= 1 {
		t.Fatalf("efficiency = %v", rep.Efficiency)
	}
	if rep.CheckpointVolumeMB <= 0 || rep.CommitTime <= 0 {
		t.Fatalf("checkpoint accounting: %+v", rep)
	}
	if rep.Checksum == 0 {
		t.Fatal("no checksum")
	}
}

// A storage line in Faults strikes the store Run writes through: lines
// cut inside the outage are refused, and the run still completes with
// the failure-free answer.
func TestRunDrivesStorageFaults(t *testing.T) {
	cfg := baseConfig()
	want := referenceChecksum(t, cfg)
	cfg.Faults = "storage-outage at 1s..3s"
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed || rep.Checksum != want {
		t.Fatalf("completed %v, checksum %v, want %v", rep.Completed, rep.Checksum, want)
	}
	if rep.CheckpointFailures == 0 {
		t.Fatal("no line refused inside the outage — the storage line never landed")
	}
}

func TestSelfHealingExactness(t *testing.T) {
	cfg := baseConfig()
	want := referenceChecksum(t, cfg)

	// MTBF of ~3 s against an ~8+ s run: several failures guaranteed.
	cfg.Faults = "crash every exp 3s"
	cfg.RestartOverhead = 500 * des.Millisecond
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed {
		t.Fatal("supervised run did not complete")
	}
	if rep.Failures == 0 {
		t.Fatal("no failures injected — test proves nothing")
	}
	if rep.Recoveries != rep.Failures {
		t.Fatalf("failures %d != recoveries %d", rep.Failures, rep.Recoveries)
	}
	// The headline: failures leave NO trace in the answer.
	if rep.Checksum != want {
		t.Fatalf("checksum after %d failures: %v != reference %v", rep.Failures, rep.Checksum, want)
	}
	// Failures cost time: efficiency below the failure-free run's.
	clean, _ := Run(baseConfig())
	if rep.Efficiency >= clean.Efficiency {
		t.Fatalf("efficiency with failures (%v) not below clean (%v)", rep.Efficiency, clean.Efficiency)
	}
	if rep.LostIterations == 0 {
		t.Fatal("no lost work recorded despite failures")
	}
	// Lost work per failure bounded by the checkpoint cadence.
	if rep.LostIterations > rep.Failures*cfg.CkptEvery {
		t.Fatalf("lost %d iterations over %d failures with cadence %d",
			rep.LostIterations, rep.Failures, cfg.CkptEvery)
	}
}

func TestFailureBeforeFirstCheckpoint(t *testing.T) {
	cfg := baseConfig()
	cfg.Iterations = 12
	cfg.CkptEvery = 50 // never checkpoints mid-run (only the final one)
	want := referenceChecksum(t, cfg)
	// Force an early failure: tiny MTBF for the first hit, but the
	// run is short so usually one failure before any checkpoint.
	cfg.Faults = "crash every exp 1500ms"
	cfg.RestartOverhead = 100 * des.Millisecond
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed {
		t.Fatal("run did not complete")
	}
	if rep.Checksum != want {
		t.Fatalf("restart-from-scratch checksum %v != %v", rep.Checksum, want)
	}
}

// TestWastedLinesChargedOnce: a rollback charges the committed lines
// past the restored iteration as wasted, each line at most once — a
// second rollback to the same point charges only the line the replay
// committed since, under a fresh seq.
func TestWastedLinesChargedOnce(t *testing.T) {
	s := &Supervisor{lines: map[uint64]lineRecord{1: {iter: 5}, 2: {iter: 10}, 3: {iter: 15}}}
	s.closeFailureRecords(5)
	if s.report.WastedCheckpoints != 2 {
		t.Fatalf("first rollback to iteration 5 wasted %d lines, want 2", s.report.WastedCheckpoints)
	}
	s.lines[4] = lineRecord{iter: 10}
	s.closeFailureRecords(5)
	if s.report.WastedCheckpoints != 3 {
		t.Fatalf("second rollback brought the total to %d wasted lines, want 3", s.report.WastedCheckpoints)
	}
	if got := s.lines[2]; got.iter != 10 {
		t.Fatalf("a wasted line restores to iteration %d, want 10", got.iter)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := baseConfig()
	cfg.Faults = "crash every exp 2s"
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Failures != b.Failures || a.Elapsed != b.Elapsed || a.Checksum != b.Checksum {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestValidation(t *testing.T) {
	bad := baseConfig()
	bad.Ranks = -1
	if _, err := Run(bad); err == nil {
		t.Fatal("negative ranks accepted")
	}
	bad = baseConfig()
	bad.Nx = 2
	if _, err := Run(bad); err == nil {
		t.Fatal("tiny grid accepted")
	}
	// A negative overhead would schedule the first recovery in the past.
	bad = baseConfig()
	bad.Faults = "crash every exp 2s"
	bad.RestartOverhead = -3 * des.Second
	if _, err := Run(bad); err == nil {
		t.Fatal("negative restart overhead accepted")
	}
	// An empty Faults switches failures off; a Poisson clock whose mean is
	// not positive is a mistake, not a synonym, and so is a malformed
	// line or a fault with no instant to land.
	for _, faults := range []string{
		"crash every exp -1s",
		"crash every exp 0s",
		"crash every exp",
		"crash every exp 1s\ncrash every exp 2s",
		"net loss 1.5",
		"net loss NaN",
		"net dup 1",
		"parity-flip at 0s..10s",
	} {
		bad = baseConfig()
		bad.Faults = faults
		if _, err := Run(bad); err == nil {
			t.Fatalf("faults %q accepted", faults)
		}
	}
	// A zero detector period switches the detector off; a negative one is
	// refused.
	bad = baseConfig()
	bad.HeartbeatPeriod = -des.Second
	if _, err := Run(bad); err == nil {
		t.Fatal("negative heartbeat period accepted")
	}
}

func TestEfficiencyDegradesWithFailureRate(t *testing.T) {
	effAt := func(faults string) float64 {
		cfg := baseConfig()
		cfg.Faults = faults
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Completed {
			t.Fatal("incomplete")
		}
		return rep.Efficiency
	}
	healthy := effAt("crash every exp 60s")
	sick := effAt("crash every exp 2s")
	if sick >= healthy {
		t.Fatalf("efficiency at 2s MTBF (%v) not below 60s MTBF (%v)", sick, healthy)
	}
	if math.IsNaN(healthy) || math.IsNaN(sick) {
		t.Fatal("NaN efficiency")
	}
}

// TestSameSeedRunsLeaveIdenticalStores: determinism reaches the bytes at
// rest, not just the report. Incremental capture once walked its dirty
// map in Go's randomised order, so two identical runs stored different
// bytes under the same key.
func TestSameSeedRunsLeaveIdenticalStores(t *testing.T) {
	run := func() *storage.MemStore {
		cfg := baseConfig()
		cfg.Faults = "crash every exp 2s"
		store := storage.NewMemStore()
		cfg.Store = store
		rep, err := Run(cfg)
		if err != nil || !rep.Completed || rep.Failures == 0 {
			t.Fatalf("run: %v, report %+v", err, rep)
		}
		return store
	}
	a, b := run(), run()
	keysA, _ := a.Keys()
	keysB, _ := b.Keys()
	if !reflect.DeepEqual(keysA, keysB) {
		t.Fatalf("key sets differ: %v vs %v", keysA, keysB)
	}
	incrementals := 0
	for _, k := range keysA {
		da, _ := a.Get(k)
		db, _ := b.Get(k)
		if !bytes.Equal(da, db) {
			t.Errorf("%s: stored bytes differ between two same-seed runs", k)
		}
		if seg, err := ckpt.DecodeSegment(da); err == nil && seg.Kind == ckpt.Incremental && len(seg.Pages) > 1 {
			incrementals++
		}
	}
	if incrementals == 0 {
		t.Fatal("no multi-page incremental segment stored — the test proves nothing")
	}
}
