package autonomic

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/chaos"
	"repro/internal/des"
	"repro/internal/storage"
)

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

	run := func() *Report {
		cfg := baseConfig()
		cfg.Replicas = 2
		cfg.Faults = `crash every exp 3s
storage-decay die-after 30 seed 11 store 0
storage-decay transient 0.10 torn 0.10 corrupt 0.10 seed 12 store 1`
		cfg.RestartOverhead = 500 * des.Millisecond
		out, err := ValidateReplay(cfg)
		if err != nil {
			t.Fatalf("supervised run failed: %v", err)
		}
		return out.Injected
	}

	rep := run()
	if !rep.Completed {
		t.Fatalf("run did not complete: %+v", rep)
	}
	if rep.Failures == 0 {
		t.Fatal("no node failures injected — test proves nothing")
	}
	if rep.Decay[0].Unavailable == 0 {
		t.Fatal("replica A never hit its permanent outage")
	}
	if st := rep.Decay[1]; st.TornWrites == 0 || st.Corruptions == 0 || st.Transients == 0 {
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

	// Deterministic: every run builds a fresh stack, so the same config
	// replays the identical run, fault for fault.
	rep2 := run()
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
		cfg.Replicas = 2
		cfg.Faults = fmt.Sprintf(`crash every exp 3s
partition at 2s..4s
storage-decay transient 0.08 torn 0.05 corrupt 0.05 seed %d store 0
storage-decay transient 0.08 torn 0.05 corrupt 0.05 seed %d store 1`, seed*97, seed*97+1)
		out, err := ValidateReplay(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep := out.Injected; !rep.Completed || rep.Failures == 0 {
			t.Fatalf("seed %d: completed %v after %d failures — test proves nothing", seed, rep.Completed, rep.Failures)
		}
		if !out.BitExact() {
			t.Fatalf("seed %d: replay diverged (digests %v, checksum %v, recovery %+v)", seed, out.DigestsMatch, out.ChecksumMatch, out.Diverged)
		}
		for i := 0; i < 2; i++ {
			if st := out.Injected.Decay[i]; st.Transients+st.TornWrites+st.Corruptions == 0 {
				t.Fatalf("seed %d: replica %d never decayed: %+v", seed, i, st)
			}
		}
	}
}

// TestCheckpointFailuresSurvived: with no hardening and a single flaky
// sink, some coordinated checkpoints fail outright. The supervisor must
// absorb them — count the failure, re-base the chains — and still
// finish with the right answer.
func TestCheckpointFailuresSurvived(t *testing.T) {
	want := referenceChecksum(t, baseConfig())

	// No retry layer (zero Replicas): every injected transient reaches
	// the coordinator.
	cfg := baseConfig()
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

// TestReplayCorruptDecayBelowTheMirror: a storage-decay corrupt line in
// Faults strikes replica 0 below its integrity envelope, so read-back
// rejects every rotten segment and the mirror serves replica 1's copy.
// Every seed completes bit-exact, and the line's counters show it
// rotted segments. (Above a caller's mirror, where Run once placed it,
// the envelope sealed the damage and seeds 5 and 13 diverged.)
func TestReplayCorruptDecayBelowTheMirror(t *testing.T) {
	for _, seed := range []uint64{3, 5, 9, 11, 13} {
		cfg := baseConfig()
		cfg.Seed = seed
		cfg.RestartOverhead = 500 * des.Millisecond
		cfg.Replicas = 2
		cfg.Faults = fmt.Sprintf("crash every exp 3s\nstorage-decay corrupt 0.2 seed %d store 0", seed)
		out, err := ValidateReplay(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		rep := out.Injected
		if !rep.Completed || rep.Failures == 0 {
			t.Fatalf("seed %d: completed %v after %d failures — test proves nothing", seed, rep.Completed, rep.Failures)
		}
		if !out.BitExact() {
			t.Fatalf("seed %d: replay diverged (digests %v, checksum %v, recovery %+v)", seed, out.DigestsMatch, out.ChecksumMatch, out.Diverged)
		}
		if d := rep.Decay; d[0].Corruptions == 0 || d[1] != (chaos.StoreStats{Ops: d[1].Ops}) {
			t.Fatalf("seed %d: decay counters %+v, want corruptions on store 0 only", seed, d)
		}
	}
}

// TestHardenedStoreIsOneReplicasBackend: Store is where one replica's bytes
// land — integrity-enveloped — and a backend cannot be shared by a
// mirror: Store with two replicas is refused before anything runs.
func TestHardenedStoreIsOneReplicasBackend(t *testing.T) {
	cfg := baseConfig()
	backend := storage.NewMemStore()
	cfg.Store, cfg.Replicas = backend, 1
	rep, err := Run(cfg)
	if err != nil || !rep.Completed {
		t.Fatalf("one replica over Store: %v", err)
	}
	keys, err := backend.Keys()
	if err != nil || len(keys) == 0 {
		t.Fatalf("the backend holds %d keys (%v), want the run's segments", len(keys), err)
	}
	sealed, _ := backend.Get(keys[0])
	if _, err := storage.Open(sealed); err != nil {
		t.Fatalf("%s is not enveloped: %v", keys[0], err)
	}
	cfg.Replicas = 2
	if _, err := Run(cfg); !errors.Is(err, ErrStoreWithReplicas) {
		t.Fatalf("Store with two replicas: %v, want ErrStoreWithReplicas", err)
	}
}
