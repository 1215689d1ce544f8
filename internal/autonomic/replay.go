package autonomic

// Crash–restore–replay equivalence validation: the end-to-end claim of
// the whole checkpointing stack is that a run torn apart by failures —
// node crashes, crashes aimed inside commit windows, network partitions,
// storage outages, silent at-rest bit flips — and stitched back together
// by restore-and-replay finishes in the *bit-identical* process image of
// a run that never failed. ValidateReplay measures that claim directly:
// it runs the same seeded configuration twice, once failure-free and
// once under a compiled chaos plan, and compares final per-rank address
// space digests and the gathered solution checksum.

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/des"
	"repro/internal/storage"
)

// ReplayOutcome is the verdict of one equivalence validation.
type ReplayOutcome struct {
	// Reference is the failure-free run's report.
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

// ValidateReplay runs cfg once failure-free and once under the given
// chaos schedule (compiled with cfg.Seed), then compares the final
// states bit for bit. The injected run hosts the supervisor on a fresh
// engine bound to a chaos driver, with the driver's timed storage faults
// and bit flips interposed *below* an integrity envelope and a retry
// layer — flips surface as read-back corruption, outages as refusals the
// retries may or may not outlast. MTBF-driven Poisson failures are
// disabled in both runs so the plan is the sole failure source and every
// entry in the injected report's FailureLog is attributable to it.
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
// stack for the injected run: build receives the injected run's engine
// and chaos driver and returns the store the supervisor writes through.
// This is how alternative sinks — a networked checkpoint-store service,
// a mirror group — are put under the same bit-exactness contract as the
// default hardened stack: the reference run keeps the pristine in-memory
// store, so any acked-but-lost write in the injected stack shows up as a
// digest divergence.
func ValidateReplayStore(cfg Config, sched *chaos.Schedule, build func(*des.Engine, *chaos.Driver) storage.Store) (*ReplayOutcome, error) {
	plan, err := sched.Compile(cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("autonomic: replay validation: %w", err)
	}

	ref := cfg
	ref.MTBF = 0
	ref.NetFaults = nil
	ref.Store = nil
	ref.Engine = nil
	ref.Chaos = nil
	refReport, err := Run(ref)
	if err != nil {
		return nil, fmt.Errorf("autonomic: reference run: %w", err)
	}

	eng := des.NewEngine()
	driver := chaos.NewDriver(eng, plan)
	inj := cfg
	inj.MTBF = 0
	inj.Engine = eng
	inj.Chaos = driver
	inj.Store = build(eng, driver)
	injReport, err := Run(inj)
	if err != nil {
		return nil, fmt.Errorf("autonomic: injected run: %w", err)
	}

	out := &ReplayOutcome{
		Reference:     refReport,
		Injected:      injReport,
		Stats:         driver.Stats(),
		Plan:          plan,
		ChecksumMatch: refReport.Checksum == injReport.Checksum,
		DigestsMatch:  len(refReport.SpaceDigests) == len(injReport.SpaceDigests),
	}
	if out.DigestsMatch {
		for i, d := range refReport.SpaceDigests {
			if injReport.SpaceDigests[i] != d {
				out.DigestsMatch = false
				break
			}
		}
	}
	return out, nil
}
