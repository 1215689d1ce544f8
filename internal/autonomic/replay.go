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
	"cmp"
	"fmt"
	"slices"
	"sync"

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
	// Plan is the compiled fault plan the injected run executed (nil
	// when nothing fails).
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
// cfg without its failure sources (Faults), its storage stack (Store,
// Replicas) and the four layers that only protect committed lines
// (TwoPhaseCommit, MultiLevel, HeartbeatPeriod, Spec). A protection
// layer that writes into application memory therefore perturbs only
// the run it protects, never the reference. The workload, grid, Ranks,
// Iterations and ComputeTime stay, and so does the checkpoint schedule
// — CkptEvery, Sink and RDMA — because a line lands a one-sided ring's
// in-flight puts before its next sweep (the drain protocol does, and so
// does the commit pause), so where lines are cut is part of the answer
// (see kernels.DistPut).
//
// With no failure source and no detector nothing fails, so the run
// never restores and nothing reads its lines back: they go to a store
// that keeps nothing (discardStore). Every line is still captured,
// counted and charged its sink time exactly as a kept one.
//
// A reference whose workload is one of this package's value factories
// (StencilFactory, PutFactory, SoloFactory, or nil for the first) runs
// once per process: later calls with the same stripped config, whatever
// their Seed, return a copy of the first report (see referenceKey).
// Every call gets its own copy, so a caller may change what it is given.
func Reference(cfg Config) (*Report, error) {
	cfg = referenceConfig(cfg)
	key, memo := referenceKey(cfg)
	if memo {
		refMemo.Lock()
		rep, hit := refMemo.m[key]
		refMemo.Unlock()
		if hit {
			c := rep.clone()
			return &c, nil
		}
	}
	rep, err := Run(cfg)
	if err != nil || !memo {
		return rep, err
	}
	refMemo.Lock()
	refMemo.m[key] = rep.clone()
	refMemo.Unlock()
	return rep, nil
}

// referenceConfig is cfg without its failure sources and protection
// layers, writing to a store that keeps nothing, with its defaults
// filled in: the run Reference makes.
func referenceConfig(cfg Config) Config {
	cfg.Faults, cfg.Store, cfg.Replicas = "", discardStore{}, 0
	cfg.TwoPhaseCommit, cfg.MultiLevel, cfg.HeartbeatPeriod, cfg.Spec = false, nil, 0, nil
	return cfg.withDefaults()
}

// refMemo holds the reports of the references this process has run, by
// referenceKey. Two concurrent misses on one key both run and store
// equal reports.
var refMemo = struct {
	sync.Mutex
	m map[Config]Report
}{m: make(map[Config]Report)}

// referenceKey is the memo key of the reference config cfg and whether
// its report may be memoised at all. A stripped config value determines
// its run, and a run reads Seed only through its compiled plan, which a
// reference has none of: the key is cfg with Seed zeroed. Only this
// package's value factories are memoised, because their value is their
// behaviour; any other Factory — a caller's decorator may count or
// trace — runs every time. A config holding a NaN never equals itself,
// so it is not memoised either.
func referenceKey(cfg Config) (Config, bool) {
	cfg.Seed = 0
	switch cfg.Workload.(type) {
	case StencilFactory, PutFactory, SoloFactory:
		return cfg, cfg == cfg
	}
	return cfg, false
}

// clone is a copy of r sharing no slice with it.
func (r *Report) clone() Report {
	c := *r
	c.DetectionLatencies = slices.Clone(r.DetectionLatencies)
	c.FailureLog = slices.Clone(r.FailureLog)
	c.SpaceDigests = slices.Clone(r.SpaceDigests)
	c.Decay = slices.Clone(r.Decay)
	c.Retry = slices.Clone(r.Retry)
	c.Mirror.ReplicaErrors = slices.Clone(r.Mirror.ReplicaErrors)
	return c
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

// ValidateReplay runs cfg's Reference and cfg itself — under cfg.Faults,
// on the storage stack cfg.Store and cfg.Replicas describe — and
// Compares the final states bit for bit. The plan is compiled once, and
// one holding faults cfg has no place to land is refused before either
// run starts. It is the injected run's sole failure source, so every
// entry in the injected report's FailureLog is attributable to it. With
// Replicas >= 1 the storage lines strike below an integrity envelope and
// a retry layer: flips surface as read-back corruption, outages as
// refusals the retries may or may not outlast.
func ValidateReplay(cfg Config) (*ReplayOutcome, error) {
	return validateReplay(cfg, nil, nil)
}

// ValidateReplayStore is ValidateReplay with a caller-built storage
// stack for the injected run, kept for its two callers: the frozen
// benchmark's heal workloads (benchmark/workloads.go) and the
// engine-bound checkpoint-store service of service_test.go. Every other
// stack is a Config value (Store, Replicas). The validator builds the
// injected run's fresh engine and binds a chaos driver for the compiled
// plan to it, and build receives both and returns the store the
// supervisor writes through. The plan is cfg.Faults followed by sched
// (nil when cfg.Faults holds every fault), compiled as one schedule and
// refused, as ValidateReplay's is, before either run starts and before
// build is called; one whose storage lines strike store i is refused
// before the injected run computes anything if build did not wrap i+1
// stores with the driver (Driver.WrapStore), where they would silently
// vanish.
func ValidateReplayStore(cfg Config, sched *chaos.Schedule, build func(*des.Engine, *chaos.Driver) storage.Store) (*ReplayOutcome, error) {
	return validateReplay(cfg, cmp.Or(sched, &chaos.Schedule{}), build)
}

// validateReplay is ValidateReplayStore, with build nil for the stack
// cfg describes.
func validateReplay(cfg Config, sched *chaos.Schedule, build func(*des.Engine, *chaos.Driver) storage.Store) (*ReplayOutcome, error) {
	plan, err := cfg.plan(sched)
	if err != nil {
		return nil, fmt.Errorf("autonomic: replay validation: %w", err)
	}
	ref, err := Reference(cfg)
	if err != nil {
		return nil, fmt.Errorf("autonomic: reference run: %w", err)
	}
	inj, driver, err := run(cfg, plan, build)
	if err != nil {
		return nil, fmt.Errorf("autonomic: injected run: %w", err)
	}
	out := Compare(ref, inj)
	if driver != nil {
		out.Stats = driver.Stats()
	}
	out.Plan = plan
	return out, nil
}
