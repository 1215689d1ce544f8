package autonomic

// Crash–restore–replay equivalence validation: the end-to-end claim of
// the whole checkpointing stack is that a run torn apart by failures —
// node crashes, crashes aimed inside commit windows, network partitions,
// storage outages, silent at-rest bit flips — and stitched back together
// by restore-and-replay finishes in the *bit-identical* process image of
// a run that never failed. ValidateReplay measures that claim directly:
// it runs the configuration's Reference and the same configuration
// under a compiled chaos plan, and compare judges the two by every
// recovery's resumed state, the final per-rank address space digests
// and the gathered solution checksum.

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"repro/internal/chaos"
	"repro/internal/des"
	"repro/internal/mem"
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
	// Diverged is the first recovery whose resumed state differs from
	// the reference's at the iteration it resumed from, nil when every
	// recovery resumed from the reference's state.
	Diverged *Divergence
}

// Divergence names the first recovery of an injected run that resumed
// from a state the reference never held: a restore that landed a wrong
// page, or a scratch restart that did not start from the fresh state.
type Divergence struct {
	// Failure indexes the injected report's FailureLog: the last failure
	// the recovery absorbed.
	Failure int
	// Iter is the iteration the recovery resumed from (0 for a scratch
	// restart).
	Iter int
	// Rank is the first rank whose state differs.
	Rank int
}

// BitExact reports full replay equivalence: every recovery resumed from
// the reference's state, and the final digests and checksum match.
func (o *ReplayOutcome) BitExact() bool {
	return o.DigestsMatch && o.ChecksumMatch && o.Diverged == nil
}

// trailKind selects the states a run digests into its trail: none
// (Run), the state at every line's cut and the fresh state a run starts
// from (a reference), or the state every recovery resumes from (the
// injected run of a replay validation).
type trailKind uint8

const (
	noTrail trailKind = iota
	lineTrail
	restoreTrail
)

// trail is a run's digested states, in the order the run reached them.
// A reference's is memoised with its report, so a state is kept small:
// a word per region.
type trail []trailState

// trailState is every rank's checkpointed state at one instant.
type trailState struct {
	// failure is the FailureLog index of the last failure a recovery
	// absorbed; -1 in a reference.
	failure int
	// iter is the iteration the state belongs to: a line's, or the one
	// a recovery resumed from.
	iter int
	// sums holds, rank by rank, the count of the rank's checkpointable
	// regions followed by each one's sum (regionSum), in address order.
	sums []uint64
}

// regionSum is a checkpointable region's sum: its digest (mem.Region.
// Digest, which covers its kind, start and size too) with the low bit
// set, or 0 for a recomputable region, whose contents a restore does not
// hold: it is listed, not judged.
func regionSum(r *mem.Region) uint64 {
	if r.Recomputable() {
		return 0
	}
	return r.Digest() | 1
}

// rank returns the sums of the rank whose count sits at sums[at], and
// where the next rank's begins.
func (st *trailState) rank(at int) (sums []uint64, next int) {
	next = at + 1 + int(st.sums[at])
	return st.sums[at+1 : next], next
}

// record appends team t's state to the run's trail: iter is the
// iteration it belongs to and failure the FailureLog index of the last
// failure the recovery that built t absorbed (-1 for none).
func (s *Supervisor) record(t *team, iter, failure int) {
	st := trailState{failure: failure, iter: iter}
	var buf [16]*mem.Region
	for _, sp := range t.spaces {
		regions := sp.AppendRegions(buf[:0])
		if st.sums == nil { // every rank maps as many regions
			n := 1
			for _, r := range regions {
				if r.Kind().Checkpointable() {
					n++
				}
			}
			st.sums = make([]uint64, 0, len(t.spaces)*n)
		}
		at := len(st.sums)
		st.sums = append(st.sums, 0)
		for _, r := range regions {
			if r.Kind().Checkpointable() {
				st.sums = append(st.sums, regionSum(r))
				st.sums[at]++
			}
		}
	}
	s.states = append(s.states, st)
}

// diverged judges run's recovery states against ref's line states: the
// first recovery whose state differs from the reference's at the
// iteration it resumed from, or nil. A reference without states (none
// was recorded) judges nothing; a resumed iteration the reference never
// cut a line at diverges at rank 0.
func (ref trail) diverged(run trail) *Divergence {
	if len(ref) == 0 {
		return nil
	}
	for _, st := range run {
		i := slices.IndexFunc(ref, func(l trailState) bool { return l.iter == st.iter })
		if i < 0 {
			return &Divergence{Failure: st.failure, Iter: st.iter}
		}
		for rank, at, refAt := 0, 0, 0; at < len(st.sums); rank++ {
			if refAt >= len(ref[i].sums) {
				return &Divergence{Failure: st.failure, Iter: st.iter, Rank: rank}
			}
			var got, want []uint64
			got, at = st.rank(at)
			want, refAt = ref[i].rank(refAt)
			if !sameState(want, got) {
				return &Divergence{Failure: st.failure, Iter: st.iter, Rank: rank}
			}
		}
	}
	return nil
}

// sameState reports whether one rank's region sums in a run equal the
// reference's, region for region, but for the run's recomputable ones.
func sameState(want, got []uint64) bool {
	if len(want) != len(got) {
		return false
	}
	for k := range got {
		if want[k] != got[k] && got[k] != 0 {
			return false
		}
	}
	return true
}

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
//
//lint:ignore deadexport the failure-free answer the replay tests here and in experiments compare against; ValidateReplay runs it through reference
func Reference(cfg Config) (*Report, error) {
	rep, _, err := reference(cfg)
	return rep, err
}

// reference is Reference with the reference's trail: its fresh state
// and the state at every line's cut, which the memo keeps with the
// report. The trail is never written after the run, so every copy shares
// it.
func reference(cfg Config) (*Report, trail, error) {
	cfg = referenceConfig(cfg)
	key, memo := referenceKey(cfg)
	if memo {
		refMemo.Lock()
		e, hit := refMemo.m[key]
		refMemo.Unlock()
		if hit {
			c := e.rep.clone()
			return &c, e.trail, nil
		}
	}
	rep, tr, _, err := run(cfg, nil, nil, lineTrail)
	if err != nil || !memo {
		return rep, tr, err
	}
	refMemo.Lock()
	refMemo.m[key] = refEntry{rep: rep.clone(), trail: tr}
	refMemo.Unlock()
	return rep, tr, nil
}

// referenceConfig is cfg without its failure sources and protection
// layers, writing to a store that keeps nothing, with its defaults
// filled in: the run Reference makes.
func referenceConfig(cfg Config) Config {
	cfg.Faults, cfg.Store, cfg.Replicas = "", discardStore{}, 0
	cfg.TwoPhaseCommit, cfg.MultiLevel, cfg.HeartbeatPeriod, cfg.Spec = false, nil, 0, nil
	return cfg.withDefaults()
}

// refMemo holds the reports and trails of the references this process
// has run, by referenceKey. Two concurrent misses on one key both run and
// store equal entries.
var refMemo = struct {
	sync.Mutex
	m map[Config]refEntry
}{m: make(map[Config]refEntry)}

// refEntry is one memoised reference: its report and its trail.
type refEntry struct {
	rep   Report
	trail trail
}

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

func (discardStore) Get(key string) ([]byte, error) { return nil, notFound(key) }

func (discardStore) Delete(key string) error { return notFound(key) }

func notFound(key string) error { return fmt.Errorf("key %q: %w", key, storage.ErrNotFound) }

func (discardStore) Keys() ([]string, error) { return nil, nil }

func (discardStore) Size() (uint64, error) { return 0, nil }

// ValidateReplay runs cfg's Reference and cfg itself — under cfg.Faults,
// on the storage stack cfg.Store and cfg.Replicas describe — and
// compares them bit for bit: the state every recovery resumes from,
// digested right after the team is rebuilt, against the reference's at
// that iteration, and the final states. The plan is compiled once, and
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
// cfg describes. It is the one comparison every replay verdict is made
// by: every recovery's resumed state must be the reference's at the
// iteration it resumed from (the trails), and every rank's final
// address-space digest and the gathered checksum must be bit-identical.
func validateReplay(cfg Config, sched *chaos.Schedule, build func(*des.Engine, *chaos.Driver) storage.Store) (*ReplayOutcome, error) {
	plan, err := cfg.plan(sched)
	if err != nil {
		return nil, fmt.Errorf("autonomic: replay validation: %w", err)
	}
	ref, refTrail, err := reference(cfg)
	if err != nil {
		return nil, fmt.Errorf("autonomic: reference run: %w", err)
	}
	inj, injTrail, driver, err := run(cfg, plan, build, restoreTrail)
	if err != nil {
		return nil, fmt.Errorf("autonomic: injected run: %w", err)
	}
	out := &ReplayOutcome{
		Reference: ref, Injected: inj, Plan: plan,
		DigestsMatch:  slices.Equal(ref.SpaceDigests, inj.SpaceDigests),
		ChecksumMatch: ref.Checksum == inj.Checksum,
		Diverged:      refTrail.diverged(injTrail),
	}
	if driver != nil {
		out.Stats = driver.Stats()
	}
	return out, nil
}
