package autonomic

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/redundancy"
	"repro/internal/storage"
)

// mlBaseConfig mirrors the chaos-equivalence grid with the multi-level
// hierarchy switched on. GlobalEvery is huge by default so only line 0
// ever reaches L3 — any recovery past the first line must come from L1
// chains and L2 rebuilds, which is exactly the property the zero-L3
// assertions pin.
func mlBaseConfig(seed uint64, ml MultiLevelOptions) Config {
	cfg := Config{
		Ranks: 4, Nx: 32, RowsPerRank: 8, Boundary: 9,
		Iterations: 40, CkptEvery: 5,
		ComputeTime:     200 * des.Millisecond,
		RestartOverhead: 500 * des.Millisecond,
		Sink:            storage.Model{Name: "nfs-class", Latency: 5 * des.Millisecond, Bandwidth: 2e4},
		Seed:            seed,
		MultiLevel:      &ml,
	}
	if cfg.MultiLevel.GlobalEvery == 0 {
		cfg.MultiLevel.GlobalEvery = 1 << 20
	}
	return cfg
}

func mlDomains(t *testing.T, ranks, size int) *cluster.DomainMap {
	t.Helper()
	dm, err := cluster.NewDomainMap(ranks, size)
	if err != nil {
		t.Fatal(err)
	}
	return dm
}

func checkBitExact(t *testing.T, out *ReplayOutcome, seed uint64) {
	t.Helper()
	rep := out.Injected
	if !rep.Completed {
		t.Fatalf("seed %d: injected run did not complete", seed)
	}
	if !out.ChecksumMatch {
		t.Errorf("seed %d: checksum %v != reference %v", seed, rep.Checksum, out.Reference.Checksum)
	}
	if !out.DigestsMatch {
		t.Errorf("seed %d: final address-space digests diverge: %x vs %x",
			seed, rep.SpaceDigests, out.Reference.SpaceDigests)
	}
	if d := out.Diverged; d != nil {
		t.Errorf("seed %d: failure %d's recovery resumed from another state than the reference's at iteration %d, at rank %d",
			seed, d.Failure, d.Iter, d.Rank)
	}
}

// A healthy multi-level run computes the same answer as a legacy run of
// the same seed: the hierarchy reshapes where checkpoints live, never
// what the computation produces.
func TestMultiLevelHealthyRunMatchesLegacy(t *testing.T) {
	legacy := mlBaseConfig(7, MultiLevelOptions{})
	legacy.MultiLevel = nil
	lr, err := Run(legacy)
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []redundancy.Scheme{
		{Kind: redundancy.None},
		{Kind: redundancy.XOR, K: 2, M: 1},
		{Kind: redundancy.RS, K: 2, M: 2},
	} {
		cfg := mlBaseConfig(7, MultiLevelOptions{Scheme: scheme})
		mr, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v: %v", scheme.Kind, err)
		}
		if !mr.Completed || mr.Checksum != lr.Checksum {
			t.Fatalf("%v: checksum %v, legacy %v", scheme.Kind, mr.Checksum, lr.Checksum)
		}
		for i, d := range lr.SpaceDigests {
			if mr.SpaceDigests[i] != d {
				t.Fatalf("%v: rank %d digest diverged", scheme.Kind, i)
			}
		}
		if scheme.Kind != redundancy.None && mr.ParityVolumeMB == 0 {
			t.Fatalf("%v: no parity exchanged", scheme.Kind)
		}
		if scheme.Kind != redundancy.None && mr.L2ExchangeTime == 0 {
			t.Fatalf("%v: parity exchange cost not accounted", scheme.Kind)
		}
	}
}

// Crashes under RS 2+2 protection recover through L2 rebuilds without a
// single global-store byte: GlobalEvery is effectively infinite, so L3
// holds only line 0, yet every seed × crash schedule replays bit-exact.
// m=2 matters — two crashes can wipe two ranks of the same parity group
// before read-repair heals the first, which XOR's m=1 cannot absorb.
func TestMultiLevelCrashRecoversFromParityZeroL3(t *testing.T) {
	for _, seed := range []uint64{3, 5, 9} {
		cfg := mlBaseConfig(seed, MultiLevelOptions{
			Scheme:  redundancy.Scheme{Kind: redundancy.RS, K: 2, M: 2},
			Domains: mlDomains(t, 4, 1),
		})
		cfg.Faults, cfg.Replicas = "crash at 1500ms..6s count 2 jitter 400ms", 1
		out, err := ValidateReplay(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkBitExact(t, out, seed)
		rep := out.Injected
		if rep.Failures == 0 {
			t.Fatalf("seed %d: no failures injected", seed)
		}
		if rep.ParityRebuilds == 0 {
			t.Fatalf("seed %d: recovery never rebuilt from parity: %+v", seed, rep)
		}
		if rep.LevelReadBytes[redundancy.LevelGlobal] != 0 {
			t.Fatalf("seed %d: recovery touched the global store: %v bytes",
				seed, rep.LevelReadBytes[redundancy.LevelGlobal])
		}
		if rep.LevelReadBytes[redundancy.LevelParity] == 0 ||
			rep.LevelReadTime[redundancy.LevelParity] == 0 {
			t.Fatalf("seed %d: L2 accounting empty: %+v", seed, rep.LevelReadBytes)
		}
	}
}

// The chaos DSL's domain-crash fault: both ranks of failure domain d1
// die at the same instant — their L1 chains gone, correlated — and the
// RS-coded hierarchy still recovers every rank without touching L3,
// because placement put at most one shard of each parity group in the
// crashed domain. One fault, one failure event, two dead ranks.
func TestMultiLevelDomainCrashReplaysBitExact(t *testing.T) {
	for _, seed := range []uint64{3, 5, 9} {
		cfg := mlBaseConfig(seed, MultiLevelOptions{
			Scheme:  redundancy.Scheme{Kind: redundancy.RS, K: 2, M: 2},
			Domains: mlDomains(t, 8, 2),
		})
		cfg.Ranks = 8
		cfg.Faults, cfg.Replicas = "domain-crash at 2500ms..30s domain d1", 1
		out, err := ValidateReplay(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkBitExact(t, out, seed)
		rep := out.Injected
		if rep.DomainCrashes != 1 || out.Stats.DomainCrashes != 1 {
			t.Fatalf("seed %d: domain crashes report %d / driver %d, want 1",
				seed, rep.DomainCrashes, out.Stats.DomainCrashes)
		}
		if rep.Failures != 1 || len(rep.FailureLog) != 1 {
			t.Fatalf("seed %d: one correlated fault must be one failure event, got %d", seed, rep.Failures)
		}
		if ev := rep.FailureLog[0]; ev.Downtime <= 0 {
			t.Fatalf("seed %d: domain crash carries no downtime: %+v", seed, ev)
		}
		if rep.ParityRebuilds == 0 {
			t.Fatalf("seed %d: correlated loss never rebuilt from parity", seed)
		}
		if rep.LevelReadBytes[redundancy.LevelGlobal] != 0 {
			t.Fatalf("seed %d: domain crash fell back to the global store: %v bytes",
				seed, rep.LevelReadBytes[redundancy.LevelGlobal])
		}
	}
}

// Same correlated loss, but with the heartbeat detector on: every
// victim's tickers go silent at once, a survivor declares the death,
// and the measured detection latency lands in the report.
func TestMultiLevelDomainCrashDetected(t *testing.T) {
	cfg := mlBaseConfig(3, MultiLevelOptions{
		Scheme:  redundancy.Scheme{Kind: redundancy.XOR, K: 2, M: 1},
		Domains: mlDomains(t, 8, 2),
	})
	cfg.Ranks = 8
	cfg.HeartbeatPeriod = 50 * des.Millisecond
	cfg.Faults, cfg.Replicas = "domain-crash at 1s..30s domain d0", 1
	out, err := ValidateReplay(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkBitExact(t, out, 3)
	rep := out.Injected
	if rep.DomainCrashes != 1 || rep.Failures != 1 {
		t.Fatalf("domain crashes %d failures %d, want 1/1", rep.DomainCrashes, rep.Failures)
	}
	if len(rep.DetectionLatencies) == 0 {
		t.Fatalf("no detection latency measured: %+v", rep)
	}
}

// A parity shard corrupted at rest degrades that line's rebuild to L3 —
// the frame CRC rejects the shard, the global copy serves the read, and
// the replay still converges bit-exact. GlobalEvery is 1 here so the
// last tier actually holds every line. The corruptor flips a bit in
// group 0's shard, so the fault is aimed at domain d0 — rank 0, a
// group-0 member under round-robin placement — to guarantee recovery
// actually consults the rotten shard.
func TestMultiLevelCorruptParityDegradesToL3(t *testing.T) {
	for _, seed := range []uint64{3, 5, 9} {
		cfg := mlBaseConfig(seed, MultiLevelOptions{
			Scheme:      redundancy.Scheme{Kind: redundancy.XOR, K: 2, M: 1},
			Domains:     mlDomains(t, 4, 1),
			GlobalEvery: 1,
		})
		// The parity of the first eight lines placed rots at rest.
		cfg.Faults = "parity-flip at 0s..1h count 8\ndomain-crash at 2500ms..30s domain d0"
		cfg.Replicas = 1
		out, err := ValidateReplay(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkBitExact(t, out, seed)
		rep := out.Injected
		if rep.InjectedParityCorruptions == 0 {
			t.Fatalf("seed %d: no parity corrupted — test proves nothing", seed)
		}
		if rep.CorruptParityShards == 0 {
			t.Fatalf("seed %d: corrupt shard never detected: %+v", seed, rep)
		}
		if rep.LevelReadBytes[redundancy.LevelGlobal] == 0 {
			t.Fatalf("seed %d: corrupt parity did not degrade to L3", seed)
		}
	}
}

// Without L2 the hierarchy still recovers — everything comes from the
// surviving L1 chains and the global store. The scheme=None baseline of
// the A21 ablation.
func TestMultiLevelSchemeNoneFallsBackToL3(t *testing.T) {
	cfg := mlBaseConfig(5, MultiLevelOptions{
		Scheme:      redundancy.Scheme{Kind: redundancy.None},
		GlobalEvery: 1,
	})
	cfg.Faults, cfg.Replicas = "crash at 2s..8s count 1", 1
	out, err := ValidateReplay(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkBitExact(t, out, 5)
	rep := out.Injected
	if rep.ParityRebuilds != 0 || rep.ParityVolumeMB != 0 {
		t.Fatalf("scheme None exchanged parity: %+v", rep)
	}
	if rep.Failures == 0 || rep.LevelReadBytes[redundancy.LevelGlobal] == 0 {
		t.Fatalf("victim's chain must come from L3: %+v", rep.LevelReadBytes)
	}
}

func TestMultiLevelDeterminism(t *testing.T) {
	run := func() *Report {
		cfg := mlBaseConfig(9, MultiLevelOptions{
			Scheme:  redundancy.Scheme{Kind: redundancy.RS, K: 2, M: 2},
			Domains: mlDomains(t, 8, 2),
		})
		cfg.Ranks = 8
		cfg.Faults, cfg.Replicas = "domain-crash at 1s..30s domain d1\ncrash at 4s..9s count 1", 1
		out, err := ValidateReplay(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return out.Injected
	}
	a, b := run(), run()
	if a.Checksum != b.Checksum || a.Elapsed != b.Elapsed ||
		a.ParityRebuilds != b.ParityRebuilds ||
		a.LevelReadBytes != b.LevelReadBytes ||
		a.LevelReadTime != b.LevelReadTime {
		t.Fatalf("multi-level run not deterministic:\n%+v\n%+v", a, b)
	}
}

func TestMultiLevelConfigErrors(t *testing.T) {
	base := mlBaseConfig(1, MultiLevelOptions{Scheme: redundancy.Scheme{Kind: redundancy.XOR, K: 2, M: 1}})

	cfg := base
	cfg.MultiLevel = &MultiLevelOptions{
		Scheme:  redundancy.Scheme{Kind: redundancy.XOR, K: 2, M: 1},
		Domains: mlDomains(t, 8, 1), // run has 4 ranks
	}
	if _, err := Run(cfg); err == nil {
		t.Fatal("mismatched domain map accepted")
	}

	cfg = base
	// 4 ranks in 2 domains cannot place k+m=3 shards domain-disjoint.
	cfg.MultiLevel = &MultiLevelOptions{
		Scheme:  redundancy.Scheme{Kind: redundancy.XOR, K: 2, M: 1},
		Domains: mlDomains(t, 4, 2),
	}
	if _, err := Run(cfg); err == nil {
		t.Fatal("infeasible placement accepted")
	}

	cfg = base
	cfg.MultiLevel.Scheme = redundancy.Scheme{Kind: redundancy.XOR, K: 2, M: 0}
	if _, err := Run(cfg); err == nil {
		t.Fatal("invalid scheme accepted")
	}
}

// An unknown domain name in the chaos plan is a hard configuration
// error, not a silent no-op.
func TestMultiLevelUnknownDomainFails(t *testing.T) {
	cfg := mlBaseConfig(3, MultiLevelOptions{
		Scheme:  redundancy.Scheme{Kind: redundancy.XOR, K: 2, M: 1},
		Domains: mlDomains(t, 4, 1),
	})
	cfg.Faults, cfg.Replicas = "domain-crash at 1s..30s domain rack9", 1
	if _, err := ValidateReplay(cfg); err == nil {
		t.Fatal("unknown domain accepted")
	}
}
