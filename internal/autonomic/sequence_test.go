package autonomic

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/des"
	"repro/internal/mpi"
	"repro/internal/redundancy"
	"repro/internal/storage"
)

// readLog is a store that records every key read through it.
type readLog struct {
	storage.Store
	keys []string
}

func (l *readLog) Get(key string) ([]byte, error) {
	l.keys = append(l.keys, key)
	return l.Store.Get(key)
}

// Multi-level × two-phase commit is one commit sequence: the parity
// stage follows the COMMIT marker, and the marker writes through to L3,
// so recovery through the tiered view trusts committed lines only and
// still finds one after any rank's L1 is gone. Every schedule replays
// bit-exact; every schedule but commit-crash (which aborts the first
// lines it hits) restores a committed line rather than restarting from
// scratch; and L3 serves commit markers only — XOR 2+1 over singleton
// domains rebuilds every lost segment from parity.
func TestMultiLevelTwoPhaseReplayBitExact(t *testing.T) {
	for _, sc := range []struct{ name, text string }{
		{"crash", "crash at 2s..8s count 1"},
		{"commit-crash", "commit-crash at 1s..30s count 2"},
		{"domain-crash", "domain-crash at 2500ms..30s domain d1"},
	} {
		t.Run(sc.name, func(t *testing.T) {
			for _, seed := range []uint64{3, 5, 9, 11} {
				cfg := mlBaseConfig(seed, MultiLevelOptions{
					Scheme:  redundancy.Scheme{Kind: redundancy.XOR, K: 2, M: 1},
					Domains: mlDomains(t, 4, 1),
				})
				cfg.TwoPhaseCommit = true
				l3 := &readLog{Store: storage.NewMemStore()}
				cfg.Faults, cfg.Store = sc.text, l3
				out, err := ValidateReplay(cfg)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				checkBitExact(t, out, seed)
				rep := out.Injected
				if rep.Failures == 0 {
					t.Fatalf("seed %d: chaos plan landed no failure", seed)
				}
				restored := false
				for _, ev := range rep.FailureLog {
					restored = restored || ev.RestoredIter > 0
				}
				if sc.name != "commit-crash" && !restored {
					t.Errorf("seed %d: every recovery restarted from scratch: %+v", seed, rep.FailureLog)
				}
				if sc.name == "commit-crash" && rep.AbortedCommits == 0 {
					t.Errorf("seed %d: commit crashes aborted no round", seed)
				}
				for _, k := range l3.keys {
					var seq uint64
					if !ckpt.ParseCommitKey(k, &seq) {
						t.Errorf("seed %d: L3 served %q; it may serve commit markers only", seed, k)
					}
				}
			}
		})
	}
}

// A commit-crash window on a plain-commit run lands inside the
// stop-and-copy pause. The line was recorded at the cut, so the failure
// restores the very line it interrupted and loses no iteration.
func TestReplayPlainCommitCrashLands(t *testing.T) {
	for _, seed := range chaosSeeds {
		cfg := chaosBaseConfig(seed)
		cfg.Faults, cfg.Replicas = "commit-crash at 1s..30s count 2", 1
		out, err := ValidateReplay(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkBitExact(t, out, seed)
		rep := out.Injected
		if out.Stats.CommitCrashes != 2 || rep.Failures != 2 {
			t.Fatalf("seed %d: %d commit crashes aimed, %d failures; want 2 and 2", seed, out.Stats.CommitCrashes, rep.Failures)
		}
		for i, ev := range rep.FailureLog {
			if ev.DuringCommit || ev.RestoredIter != ev.Iter || ev.Iter == 0 {
				t.Errorf("seed %d: failure %d %+v: want the interrupted line restored", seed, i, ev)
			}
		}
	}
}

// A crash whose recovery finds the store inside an outage waits it out,
// one restart overhead at a time, instead of aborting the run. These are
// the benchmark's heal-stencil configuration and schedule on one
// replica, without the mirror that hides the outage; at these seeds the
// claim step's Keys() used to fail with storage.ErrUnavailable and abort
// the run.
func TestReplayWaitsOutStorageOutage(t *testing.T) {
	for _, seed := range []uint64{6, 13, 16} {
		cfg := healStencilConfig(seed)
		cfg.Replicas = 1
		cfg.Faults = `
crash at 2s..12s count 2 jitter 300ms
commit-crash at 1s..20s count 1
storage-outage at 7s..8s
bitflip at 1200ms..15s count 4
`
		out, err := ValidateReplay(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkBitExact(t, out, seed)
		if out.Stats.OutageRefusals == 0 {
			t.Errorf("seed %d: no operation met the outage", seed)
		}
	}
}

// countingFactory counts the computations a run builds: every run,
// reference or injected, builds one before its first event.
type countingFactory struct {
	Factory
	built *int
}

func (f countingFactory) New(eng *des.Engine, world *mpi.World) (Computation, error) {
	*f.built++
	return f.Factory.New(eng, world)
}

// refusedBeforeRun asserts that ValidateReplay and Run both refuse cfg
// before anything ran — no run built its computation — and returns the
// validator's error.
func refusedBeforeRun(t *testing.T, cfg Config) error {
	t.Helper()
	built := 0
	cfg.Workload = countingFactory{Factory: cfg.withDefaults().Workload, built: &built}
	_, err := ValidateReplay(cfg)
	if err == nil {
		t.Fatalf("%q accepted with MultiLevel %v, RDMA %v, %d replicas", cfg.Faults, cfg.MultiLevel != nil, cfg.RDMA, cfg.Replicas)
	}
	if _, runErr := Run(cfg); runErr == nil {
		t.Fatalf("Run accepted %q", cfg.Faults)
	}
	if built != 0 {
		t.Fatalf("refused after %d runs built their computation, want before the first", built)
	}
	return err
}

// withFaults is cfg failing as faults says.
func withFaults(cfg Config, faults string) Config {
	cfg.Faults = faults
	return cfg
}

// A domain crash needs failure domains: without MultiLevel the plan is
// refused before either run instead of spending the fault.
func TestChaosRejectsDomainCrashWithoutMultiLevel(t *testing.T) {
	refusedBeforeRun(t, withFaults(chaosBaseConfig(3), "domain-crash at 1s..30s domain d0"))
}

// A crash-during-drain fault needs the drain protocol: without RDMA, or
// under naive RDMA, the plan is refused before either run instead of
// never asking the fault.
func TestChaosRejectsDrainCrashWithoutDrain(t *testing.T) {
	for _, mode := range []RDMAMode{rdmaOff, RDMANaive} {
		refusedBeforeRun(t, withFaults(rdmaConfig(mode), "crash-during-drain at 0s..60s phase deregister"))
	}
}

// A parity flip needs placed parity: without MultiLevel the plan is
// refused before either run, wherever the line stands in Faults.
func TestChaosRejectsParityFlipWithoutMultiLevel(t *testing.T) {
	refusedBeforeRun(t, withFaults(chaosBaseConfig(3), "parity-flip at 0s..30s count 2"))
	refusedBeforeRun(t, withFaults(chaosBaseConfig(3), "parity-flip at 0s..30s\ncrash at 1s..2s"))
	refusedBeforeRun(t, withFaults(chaosBaseConfig(3), "crash at 1s..2s\nparity-flip at 0s..30s"))
}

// Storage lines land only on a store the stack builds. The timed lines
// strike store 0, which every stack has: the backend alone, or replica
// 0. A storage-decay line naming store i needs max(1, Replicas) > i; one
// beyond is refused by ValidateReplay and Run alike before either run,
// instead of a verdict on faults that never fired, and one within lands
// on its replica only.
func TestChaosRejectsStorageFaultsNoStoreMeets(t *testing.T) {
	cfg := chaosBaseConfig(3)
	for _, n := range []int{0, 1, 2} {
		cfg.Faults, cfg.Replicas = "storage-outage at 1s..3s\ncrash at 6s..7s", n
		out, err := ValidateReplay(cfg)
		if err != nil || out.Stats.OutageRefusals == 0 {
			t.Fatalf("%d replicas: %v, stats %+v", n, err, out.Stats)
		}
	}
	for _, c := range []struct{ store, replicas int }{{1, 0}, {1, 1}, {2, 2}} {
		cfg.Faults = fmt.Sprintf("storage-decay transient 0.1 store %d\ncrash at 6s..7s", c.store)
		cfg.Replicas = c.replicas
		if err := refusedBeforeRun(t, cfg); !errors.Is(err, ErrUnreachableStore) {
			t.Fatalf("decay on store %d of %d replicas: %v, want ErrUnreachableStore", c.store, c.replicas, err)
		}
	}
	cfg.Faults, cfg.Replicas = "storage-decay transient 0.1 seed 4 store 1\ncrash at 6s..7s", 2
	out, err := ValidateReplay(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep := out.Injected; rep.Decay[0].Transients != 0 || rep.Decay[1].Transients == 0 || rep.Retry[1].Retries == 0 {
		t.Fatalf("decay on store 1 of 2: decay %+v, retry %+v", rep.Decay, rep.Retry)
	}
}
