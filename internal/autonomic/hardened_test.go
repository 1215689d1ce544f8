package autonomic

import (
	"fmt"
	"testing"

	"repro/internal/des"
	"repro/internal/storage"
)

// hardenedStore composes the full storage hardening stack the issue
// calls for: two mirrored replicas, each retry-wrapped and
// integrity-enveloped over a deterministic fault injector. Replica A is
// clean but dies permanently after outageOps operations; replica B
// stays up but tears writes, flips bits at rest and drops requests.
// Once A is gone, B is the sole copy, so its silent damage turns into
// unverifiable recovery lines — exactly the degraded-recovery path.
func hardenedStore(t *testing.T, outageOps int) (storage.Store, *storage.FaultyStore, *storage.FaultyStore) {
	t.Helper()
	fa := storage.NewFaultyStore(storage.NewMemStore(), storage.FaultConfig{
		Seed:           11,
		OutageAfterOps: outageOps,
	})
	fb := storage.NewFaultyStore(storage.NewMemStore(), storage.FaultConfig{
		Seed:          12,
		TransientRate: 0.10,
		TornWriteRate: 0.10,
		CorruptRate:   0.10,
	})
	mkReplica := func(f *storage.FaultyStore) storage.Store {
		return storage.NewResilientStore(storage.NewIntegrityStore(f), storage.DefaultRetryPolicy())
	}
	m, err := storage.NewMirrorStore(mkReplica(fa), mkReplica(fb))
	if err != nil {
		t.Fatal(err)
	}
	return m, fa, fb
}

// TestHardenedStorageRecovery is the issue's acceptance test: node
// failures land on a storage tier that simultaneously corrupts data at
// rest, drops requests transiently and loses a whole replica to a
// permanent outage — and the supervised run still finishes with the
// bit-exact reference answer, by falling back to earlier *verified*
// recovery lines when the newest consistent line cannot be proven.
func TestHardenedStorageRecovery(t *testing.T) {
	want := referenceChecksum(t, baseConfig())

	run := func() (*Report, *storage.FaultyStore, *storage.FaultyStore) {
		cfg := baseConfig()
		cfg.Faults = "crash every exp 3s"
		cfg.RestartOverhead = 500 * des.Millisecond
		// Fresh store per run: the wrappers are mutable (fault streams,
		// outage state), so determinism is per-store-lifetime.
		store, fa, fb := hardenedStore(t, 30)
		cfg.Store = store
		rep, err := Run(cfg)
		if err != nil {
			t.Fatalf("supervised run failed: %v", err)
		}
		return rep, fa, fb
	}

	rep, fa, fb := run()
	if !rep.Completed {
		t.Fatalf("run did not complete: %+v", rep)
	}
	if rep.Failures == 0 {
		t.Fatal("no node failures injected — test proves nothing")
	}
	if !fa.Down() {
		t.Fatal("replica A never hit its permanent outage")
	}
	if st := fb.Stats(); st.TornWrites == 0 || st.BitFlips == 0 || st.Transients == 0 {
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
	rep2, _, _ := run()
	if fmt.Sprintf("%+v", rep) != fmt.Sprintf("%+v", rep2) {
		t.Fatalf("non-deterministic under faults:\n  %+v\nvs\n  %+v", rep, rep2)
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
	cfg.Store = storage.NewIntegrityStore(storage.NewFaultyStore(storage.NewMemStore(), storage.FaultConfig{
		Seed:          7,
		TransientRate: 0.15,
	}))
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
