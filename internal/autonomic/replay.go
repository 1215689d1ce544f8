package autonomic

// Crash–restore–replay equivalence validation: the end-to-end claim of
// the whole checkpointing stack is that a run torn apart by failures —
// node crashes, crashes aimed inside commit windows, network partitions,
// storage outages, silent at-rest bit flips — and stitched back together
// by restore-and-replay finishes in the *bit-identical* process image of
// a run that never failed. ValidateReplay measures that claim directly:
// it runs the configuration's Reference and the same configuration
// under a compiled chaos plan, and Compare judges the two by final
// per-rank address space digests and the gathered solution checksum.

import (
	"fmt"
	"slices"

	"repro/internal/chaos"
	"repro/internal/des"
	"repro/internal/storage"
)

// ReplayOutcome is the verdict of one equivalence validation.
type ReplayOutcome struct {
	// Reference is the report of the configuration's Reference run:
	// failure-free, and without the layers that only protect committed
	// lines.
	Reference *Report
	// Injected is the chaos run's report.
	Injected *Report
	// Stats counts what the chaos driver actually injected.
	Stats chaos.Stats
	// Plan is the compiled fault plan the injected run executed.
	Plan *chaos.Plan
	// DigestsMatch reports that every rank's final address-space digest
	// is bit-identical between the two runs.
	DigestsMatch bool
	// ChecksumMatch reports that the gathered solution checksums are
	// bit-identical (exact float equality, not a tolerance).
	ChecksumMatch bool
}

// BitExact reports full replay equivalence: digests and checksum.
func (o *ReplayOutcome) BitExact() bool { return o.DigestsMatch && o.ChecksumMatch }

// Reference runs the answer cfg's computation must replay to: Run of
// cfg without its failure sources (MTBF, NetFaults, Store) and without
// the four layers that only protect committed lines (TwoPhaseCommit,
// MultiLevel, HeartbeatPeriod, Spec). A protection layer that writes
// into application memory therefore perturbs only the run it protects,
// never the reference. The workload, grid, Ranks, Iterations and
// ComputeTime stay, and so does the checkpoint schedule — CkptEvery,
// Sink and RDMA — because a line lands a one-sided ring's in-flight puts
// before its next sweep (the drain protocol does, and so does the commit
// pause), so where lines are cut is part of the answer (see
// kernels.DistPut).
//
// With no failure source and no detector nothing fails, so the run
// never restores and nothing reads its lines back: they go to a store
// that keeps nothing (discardStore). Every line is still captured,
// counted and charged its sink time exactly as a kept one.
func Reference(cfg Config) (*Report, error) {
	cfg.MTBF, cfg.NetFaults, cfg.Store = 0, nil, discardStore{}
	cfg.TwoPhaseCommit, cfg.MultiLevel, cfg.HeartbeatPeriod, cfg.Spec = false, nil, 0, nil
	return Run(cfg)
}

// discardStore is the Reference's store: Put borrows the segment and
// drops it, so every line is written and none is kept. It is no
// storage.OwnedPutter, so each checkpointer encodes every capture into
// one reused buffer.
type discardStore struct{}

func (discardStore) Put(string, []byte) error { return nil }

func (discardStore) Get(key string) ([]byte, error) {
	return nil, fmt.Errorf("key %q: %w", key, storage.ErrNotFound)
}

func (discardStore) Delete(key string) error {
	return fmt.Errorf("key %q: %w", key, storage.ErrNotFound)
}

func (discardStore) Keys() ([]string, error) { return nil, nil }

func (discardStore) Size() (uint64, error) { return 0, nil }

// Compare judges run against its reference: every rank's final
// address-space digest and the gathered checksum must be bit-identical.
// It is the one comparison every replay verdict is made by.
func Compare(ref, run *Report) *ReplayOutcome {
	return &ReplayOutcome{
		Reference:     ref,
		Injected:      run,
		DigestsMatch:  slices.Equal(ref.SpaceDigests, run.SpaceDigests),
		ChecksumMatch: ref.Checksum == run.Checksum,
	}
}

// ValidateReplay runs cfg's Reference and cfg under the given chaos
// schedule (compiled with cfg.Seed), then Compares the final states bit
// for bit. The injected run's timed storage faults and bit flips are
// interposed *below* an integrity envelope and a retry layer — flips
// surface as read-back corruption, outages as refusals the retries may
// or may not outlast. MTBF-driven Poisson failures are disabled so the
// plan is the sole failure source and every entry in the injected
// report's FailureLog is attributable to it.
func ValidateReplay(cfg Config, sched *chaos.Schedule) (*ReplayOutcome, error) {
	// Hardened stack with chaos interposed at the bottom: bit flips
	// corrupt enveloped bytes so IntegrityStore surfaces ErrCorrupt on
	// read-back; outage/brownout refusals bubble through the retry layer.
	return ValidateReplayStore(cfg, sched, func(_ *des.Engine, driver *chaos.Driver) storage.Store {
		return storage.NewResilientStore(
			storage.NewIntegrityStore(driver.WrapStore(storage.NewMemStore())),
			storage.DefaultRetryPolicy())
	})
}

// ValidateReplayStore is ValidateReplay with a caller-supplied storage
// stack for the injected run. The validator owns the injected run's
// wiring: it builds a fresh engine and binds a chaos driver for the
// compiled plan to it, and build receives both and returns the store
// the supervisor writes through. This is how alternative sinks — a
// networked checkpoint-store service, a mirror group — are put under
// the same bit-exactness contract as the default hardened stack: the
// Reference runs failure-free and never reads a line back (its store
// keeps nothing, discardStore), so an acked-but-lost write in the
// injected stack surfaces when a recovery restores from it, as a
// divergence in Compare's digests. A plan
// holding faults cfg has no instant to land is refused before either
// run starts and before build is called.
func ValidateReplayStore(cfg Config, sched *chaos.Schedule, build func(*des.Engine, *chaos.Driver) storage.Store) (*ReplayOutcome, error) {
	plan, err := sched.Compile(cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("autonomic: replay validation: %w", err)
	}
	if err := cfg.admit(plan); err != nil {
		return nil, err
	}
	ref, err := Reference(cfg)
	if err != nil {
		return nil, fmt.Errorf("autonomic: reference run: %w", err)
	}

	eng := des.NewEngine()
	driver := chaos.NewDriver(eng, plan)
	cfg.MTBF = 0
	cfg.Store = build(eng, driver)
	inj, err := run(cfg, eng, driver)
	if err != nil {
		return nil, fmt.Errorf("autonomic: injected run: %w", err)
	}

	out := Compare(ref, inj)
	out.Stats = driver.Stats()
	out.Plan = plan
	return out, nil
}
