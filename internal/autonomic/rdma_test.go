package autonomic

import (
	"fmt"
	"testing"

	"repro/internal/chaos"
	"repro/internal/ckpt"
	"repro/internal/des"
	"repro/internal/mpi"
	"repro/internal/storage"
)

// rdmaConfig is the shared one-sided-Put ring configuration: PutEvery 1
// guarantees in-flight RDMA traffic at every checkpoint boundary, the
// traffic the drain protocol exists to land.
func rdmaConfig(mode RDMAMode) Config {
	return Config{
		Workload:    PutFactory{Pages: 1, PutEvery: 1, Seed: 2.5, ComputeTime: 50 * des.Millisecond},
		Ranks:       3,
		Iterations:  12,
		CkptEvery:   3,
		ComputeTime: 50 * des.Millisecond,
		Seed:        11,
		RDMA:        &RDMAOptions{Mode: mode},
	}
}

// A failure-free drain run completes with the protocol fully exercised:
// every checkpoint boundary runs a drain round, every phase accumulates
// latency, registration is paid, and no line carries silent pages.
func TestDrainRunAccountsPhases(t *testing.T) {
	rep, err := Run(rdmaConfig(RDMADrain))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed || rep.Iterations != 12 {
		t.Fatalf("run did not complete: %+v", rep)
	}
	if rep.DrainRounds != 4 { // boundaries 3, 6, 9, 12
		t.Fatalf("drain rounds %d, want 4", rep.DrainRounds)
	}
	for p := 0; p < mpi.NumDrainPhases; p++ {
		if rep.DrainPhaseTime[p] <= 0 {
			t.Fatalf("phase %v accumulated no latency: %v", mpi.DrainPhase(p), rep.DrainPhaseTime)
		}
	}
	if rep.RegistrationTime <= 0 {
		t.Fatal("registration cost never hit the clock")
	}
	if rep.DirectBypassBytes == 0 || rep.SilentDirtyBytes == 0 {
		t.Fatalf("no DMA traffic measured: bypass %d, silent %d", rep.DirectBypassBytes, rep.SilentDirtyBytes)
	}
	if rep.CheckpointSilentBytes != 0 {
		t.Fatalf("drain-mode chain carries %d silent bytes, want 0", rep.CheckpointSilentBytes)
	}
	if rep.DrainTimeouts != 0 {
		t.Fatalf("unexpected drain timeouts: %d", rep.DrainTimeouts)
	}
}

// Naive Direct measures the §4.2 under-count: the same run without the
// drain protocol bakes silent pages into its incremental lines.
func TestNaiveDirectBakesSilentPagesIntoChain(t *testing.T) {
	rep, err := Run(rdmaConfig(RDMANaive))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed {
		t.Fatalf("run did not complete: %+v", rep)
	}
	if rep.DrainRounds != 0 {
		t.Fatalf("naive mode ran %d drain rounds", rep.DrainRounds)
	}
	if rep.CheckpointSilentBytes == 0 {
		t.Fatal("naive Direct chain reports zero silent bytes — the under-count vanished")
	}
}

// The acceptance criterion: a node crash during *each* of the six drain
// phases must recover to a verifiable line and replay to the bit-exact
// final image of a failure-free run.
func TestDrainCrashEveryPhaseReplaysBitExact(t *testing.T) {
	for p := 0; p < mpi.NumDrainPhases; p++ {
		phase := mpi.DrainPhase(p)
		t.Run(phase.String(), func(t *testing.T) {
			sched, err := chaos.ParseSchedule(
				fmt.Sprintf("crash-during-drain at 0s..60s phase %s", phase))
			if err != nil {
				t.Fatal(err)
			}
			var injStore storage.Store
			out, err := ValidateReplayStore(rdmaConfig(RDMADrain), sched,
				func(_ *des.Engine, _ *chaos.Driver) storage.Store {
					injStore = storage.NewMemStore()
					return injStore
				})
			if err != nil {
				t.Fatal(err)
			}
			if out.Stats.DrainCrashes != 1 {
				t.Fatalf("planned drain crash never fired: %+v", out.Stats)
			}
			if out.Injected.Failures != 1 || out.Injected.Recoveries != 1 {
				t.Fatalf("failures %d / recoveries %d, want 1/1",
					out.Injected.Failures, out.Injected.Recoveries)
			}
			if !out.BitExact() {
				t.Fatalf("crash during %v did not replay bit-exactly: digests %v vs %v, checksum %v vs %v",
					phase, out.Reference.SpaceDigests, out.Injected.SpaceDigests,
					out.Reference.Checksum, out.Injected.Checksum)
			}
			// The chain the injected run left behind is verifiable end to
			// end at its newest consistent line.
			seq, ok, err := ckpt.LatestVerifiableSeq(injStore, 3)
			if err != nil || !ok {
				t.Fatalf("no verifiable line after recovery: %v %v", ok, err)
			}
			for rank := 0; rank < 3; rank++ {
				if err := ckpt.VerifyChain(injStore, rank, seq); err != nil {
					t.Fatalf("rank %d chain fails verification at line %d: %v", rank, seq, err)
				}
			}
		})
	}
}

// A rank whose in-flight traffic cannot drain inside the timeout is
// degraded to bounce-buffer delivery: the run still completes, every
// line commits, the chain verifies, and no silent pages are baked in —
// the protocol never checkpoints a torn region.
func TestDrainTimeoutDegradesToBounce(t *testing.T) {
	store := storage.NewMemStore()
	cfg := rdmaConfig(RDMADrain)
	// 128-page (512 KiB) puts over a fabric degraded 50× for the whole
	// run take ~29ms against the 10ms drain budget: the transfer cannot
	// land in time, so every rank strands at the first boundary.
	cfg.Workload = PutFactory{Pages: 128, PutEvery: 1, Seed: 1.0, ComputeTime: 50 * des.Millisecond}
	cfg.NetFaults = &mpi.NetFaultConfig{Seed: 1, Windows: []mpi.DegradedWindow{{From: 0, To: des.MaxTime, SlowFactor: 50}}}
	cfg.Store = store
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed {
		t.Fatalf("degraded run did not complete: %+v", rep)
	}
	if rep.DrainTimeouts == 0 {
		t.Fatal("no rank was stranded — the timeout never bit")
	}
	if rep.CommittedLines != 4 {
		t.Fatalf("committed %d lines, want 4", rep.CommittedLines)
	}
	if rep.CheckpointSilentBytes != 0 {
		t.Fatalf("degraded chain carries %d silent bytes — a torn region", rep.CheckpointSilentBytes)
	}
	seq, ok, err := ckpt.LatestVerifiableSeq(store, cfg.Ranks)
	if err != nil || !ok {
		t.Fatalf("no verifiable line: %v %v", ok, err)
	}
	for rank := 0; rank < cfg.Ranks; rank++ {
		if err := ckpt.VerifyChain(store, rank, seq); err != nil {
			t.Fatalf("rank %d chain fails verification: %v", rank, err)
		}
	}
}

// The naive regime's corruption is visible end to end: the same seeded
// crash that replays bit-exactly under the drain protocol diverges under
// naive Direct, because the restored line misses the NIC-written windows.
func TestNaiveDirectCrashRestoreDiverges(t *testing.T) {
	// Mid-run, past the second committed line (iteration 6 at ~300ms
	// virtual), so the restore replays from a chain that misses silent
	// window pages.
	sched, err := chaos.ParseSchedule("crash at 400ms..410ms")
	if err != nil {
		t.Fatal(err)
	}
	out, err := ValidateReplayStore(rdmaConfig(RDMANaive), sched,
		func(_ *des.Engine, _ *chaos.Driver) storage.Store { return storage.NewMemStore() })
	if err != nil {
		t.Fatal(err)
	}
	if out.Injected.Failures != 1 {
		t.Fatalf("planned crash never fired: %+v", out.Injected)
	}
	if out.BitExact() {
		t.Fatal("naive Direct crash-restore replayed bit-exactly — the under-count has no teeth")
	}

	drainOut, err := ValidateReplayStore(rdmaConfig(RDMADrain), sched,
		func(_ *des.Engine, _ *chaos.Driver) storage.Store { return storage.NewMemStore() })
	if err != nil {
		t.Fatal(err)
	}
	if drainOut.Injected.Failures != 1 {
		t.Fatalf("planned crash never fired under drain: %+v", drainOut.Injected)
	}
	if !drainOut.BitExact() {
		t.Fatal("drain protocol did not restore bit-exactness for the same crash")
	}
}
