package autonomic

import (
	"fmt"
	"testing"

	"repro/internal/chaos"
	"repro/internal/des"
	"repro/internal/storage"
)

// mirroredStack is a build function for ValidateReplayStore: two
// mirrored replicas, each retry-wrapped and integrity-enveloped over
// the driver's store i, so a storage-decay line on store 0 or 1 strikes
// one replica below its envelope. It keeps the driver in *drv.
func mirroredStack(t *testing.T, drv **chaos.Driver) func(*des.Engine, *chaos.Driver) storage.Store {
	return func(_ *des.Engine, d *chaos.Driver) storage.Store {
		*drv = d
		replica := func() storage.Store {
			return storage.NewResilientStore(storage.NewIntegrityStore(d.WrapStore(storage.NewMemStore())), storage.DefaultRetryPolicy())
		}
		m, err := storage.NewMirrorStore(replica(), replica())
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
}

// TestHardenedStorageRecovery is the hardened tier's acceptance test:
// node failures land on a storage tier that simultaneously corrupts
// data at rest, drops requests transiently and loses a whole replica to
// a permanent outage — and the supervised run still finishes with the
// bit-exact reference answer, by falling back to earlier *verified*
// recovery lines when the newest consistent line cannot be proven.
// Replica A is clean but dies after 30 operations; replica B stays up
// but tears writes, flips bits at rest and drops requests. Once A is
// gone, B is the sole copy, so its silent damage turns into
// unverifiable recovery lines — exactly the degraded-recovery path.
func TestHardenedStorageRecovery(t *testing.T) {
	want := referenceChecksum(t, baseConfig())

	run := func() (*Report, *chaos.Driver) {
		cfg := baseConfig()
		cfg.Faults = `crash every exp 3s
storage-decay die-after 30 seed 11 store 0
storage-decay transient 0.10 torn 0.10 corrupt 0.10 seed 12 store 1`
		cfg.RestartOverhead = 500 * des.Millisecond
		// Fresh stack per run: the wrappers are mutable (fault streams,
		// op counts), so determinism is per-store-lifetime.
		var drv *chaos.Driver
		out, err := ValidateReplayStore(cfg, nil, mirroredStack(t, &drv))
		if err != nil {
			t.Fatalf("supervised run failed: %v", err)
		}
		return out.Injected, drv
	}

	rep, drv := run()
	if !rep.Completed {
		t.Fatalf("run did not complete: %+v", rep)
	}
	if rep.Failures == 0 {
		t.Fatal("no node failures injected — test proves nothing")
	}
	if drv.StoreStats(0).Unavailable == 0 {
		t.Fatal("replica A never hit its permanent outage")
	}
	if st := drv.StoreStats(1); st.TornWrites == 0 || st.Corruptions == 0 || st.Transients == 0 {
		t.Fatalf("replica B injected too little: %+v", st)
	}
	// The headline: the storage tier lied, tore, rotted and died, and
	// the answer is still bit-exact.
	if rep.Checksum != want {
		t.Fatalf("checksum %v != reference %v (failures=%d degraded=%d)",
			rep.Checksum, want, rep.Failures, rep.DegradedRecoveries)
	}
	// At least one recovery had to skip the newest consistent line and
	// fall back to an earlier verified one — and the report says so.
	if rep.DegradedRecoveries == 0 {
		t.Fatalf("no degraded recoveries recorded: %+v", rep)
	}
	if rep.DegradedRecoveries > rep.Recoveries {
		t.Fatalf("degraded (%d) exceeds total recoveries (%d)",
			rep.DegradedRecoveries, rep.Recoveries)
	}

	// Deterministic: an identical fresh stack replays the identical run,
	// fault for fault.
	rep2, _ := run()
	if fmt.Sprintf("%+v", rep) != fmt.Sprintf("%+v", rep2) {
		t.Fatalf("non-deterministic under faults:\n  %+v\nvs\n  %+v", rep, rep2)
	}
}

// TestReplayStorageDecayUnderCrashesAndPartition: decay on both
// replicas of a mirrored hardened stack, crossed with the Poisson
// failure clock and a fabric partition. Every seed must complete and
// replay bit-exact, and every decay line must have struck its replica.
func TestReplayStorageDecayUnderCrashesAndPartition(t *testing.T) {
	for _, seed := range []uint64{3, 5, 9} {
		cfg := baseConfig()
		cfg.Seed = seed
		cfg.RestartOverhead = 500 * des.Millisecond
		cfg.Faults = fmt.Sprintf(`crash every exp 3s
partition at 2s..4s
storage-decay transient 0.08 torn 0.05 corrupt 0.05 seed %d store 0
storage-decay transient 0.08 torn 0.05 corrupt 0.05 seed %d store 1`, seed*97, seed*97+1)
		var drv *chaos.Driver
		out, err := ValidateReplayStore(cfg, nil, mirroredStack(t, &drv))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep := out.Injected; !rep.Completed || rep.Failures == 0 {
			t.Fatalf("seed %d: completed %v after %d failures — test proves nothing", seed, rep.Completed, rep.Failures)
		}
		if !out.BitExact() {
			t.Fatalf("seed %d: replay diverged (digests %v, checksum %v)", seed, out.DigestsMatch, out.ChecksumMatch)
		}
		for i := 0; i < 2; i++ {
			if st := drv.StoreStats(i); st.Transients+st.TornWrites+st.Corruptions == 0 {
				t.Fatalf("seed %d: replica %d never decayed: %+v", seed, i, st)
			}
		}
	}
}

// TestCheckpointFailuresSurvived: with no mirror and a single flaky
// sink, some coordinated checkpoints fail outright. The supervisor must
// absorb them — count the failure, re-base the chains — and still
// finish with the right answer.
func TestCheckpointFailuresSurvived(t *testing.T) {
	want := referenceChecksum(t, baseConfig())

	cfg := baseConfig()
	// No retry layer: every injected transient reaches the coordinator.
	cfg.Store = storage.NewIntegrityStore(storage.NewMemStore())
	cfg.Faults = "storage-decay transient 0.15 seed 7"
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed {
		t.Fatalf("run did not complete: %+v", rep)
	}
	if rep.CheckpointFailures == 0 {
		t.Fatal("no checkpoint failures injected — test proves nothing")
	}
	if rep.Checksum != want {
		t.Fatalf("checksum %v != reference %v after %d checkpoint failures",
			rep.Checksum, want, rep.CheckpointFailures)
	}
}
