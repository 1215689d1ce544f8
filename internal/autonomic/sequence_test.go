package autonomic

import (
	"testing"

	"repro/internal/chaos"
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
			sched, err := chaos.ParseSchedule(sc.text)
			if err != nil {
				t.Fatal(err)
			}
			for _, seed := range []uint64{3, 5, 9, 11} {
				cfg := mlBaseConfig(seed, MultiLevelOptions{
					Scheme:  redundancy.Scheme{Kind: redundancy.XOR, K: 2, M: 1},
					Domains: mlDomains(t, 4, 1),
				})
				cfg.TwoPhaseCommit = true
				var l3 *readLog
				out, err := ValidateReplayStore(cfg, sched, func(_ *des.Engine, d *chaos.Driver) storage.Store {
					l3 = &readLog{Store: d.WrapStore(storage.NewMemStore())}
					return l3
				})
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
	sched, err := chaos.ParseSchedule("commit-crash at 1s..30s count 2")
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range chaosSeeds {
		out, err := ValidateReplay(chaosBaseConfig(seed), sched)
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
// the benchmark's heal-stencil configuration and schedule without the
// mirror that hides the outage; at these seeds the claim step's Keys()
// used to fail with storage.ErrUnavailable and abort the run.
func TestReplayWaitsOutStorageOutage(t *testing.T) {
	sched, err := chaos.ParseSchedule(`
crash at 2s..12s count 2 jitter 300ms
commit-crash at 1s..20s count 1
storage-outage at 7s..8s
bitflip at 1200ms..15s count 4
`)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{6, 13, 16} {
		out, err := ValidateReplay(healStencilConfig(seed), sched)
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

// refusedBeforeRun asks ValidateReplayStore to check cfg under sched and
// asserts the refusal came before anything ran: no run built its
// computation, and the store builder — called after the reference run,
// before the injected one — was never called.
func refusedBeforeRun(t *testing.T, cfg Config, sched string) {
	t.Helper()
	s, err := chaos.ParseSchedule(sched)
	if err != nil {
		t.Fatal(err)
	}
	built, called := 0, false
	cfg.Workload = countingFactory{Factory: cfg.withDefaults().Workload, built: &built}
	_, err = ValidateReplayStore(cfg, s, func(*des.Engine, *chaos.Driver) storage.Store {
		called = true
		return storage.NewMemStore()
	})
	if err == nil {
		t.Fatalf("%q accepted with MultiLevel %v, RDMA %v", sched, cfg.MultiLevel != nil, cfg.RDMA)
	}
	if built != 0 {
		t.Fatalf("refused after %d runs built their computation, want before the first", built)
	}
	if called {
		t.Fatal("refused after the store builder was called, want before either run")
	}
}

// A domain crash needs failure domains: without MultiLevel the plan is
// refused before either run instead of spending the fault.
func TestChaosRejectsDomainCrashWithoutMultiLevel(t *testing.T) {
	refusedBeforeRun(t, chaosBaseConfig(3), "domain-crash at 1s..30s domain d0")
}

// A crash-during-drain fault needs the drain protocol: without RDMA, or
// under naive RDMA, the plan is refused before either run instead of
// never asking the fault.
func TestChaosRejectsDrainCrashWithoutDrain(t *testing.T) {
	for _, mode := range []RDMAMode{rdmaOff, RDMANaive} {
		refusedBeforeRun(t, rdmaConfig(mode), "crash-during-drain at 0s..60s phase deregister")
	}
}

// A parity flip needs placed parity: without MultiLevel the plan is
// refused before either run, whether the line comes from the config's
// Faults or from the validator's schedule, and Run refuses it too.
func TestChaosRejectsParityFlipWithoutMultiLevel(t *testing.T) {
	refusedBeforeRun(t, chaosBaseConfig(3), "parity-flip at 0s..30s count 2")
	cfg := chaosBaseConfig(3)
	cfg.Faults = "parity-flip at 0s..30s"
	refusedBeforeRun(t, cfg, "crash at 1s..2s")
	if _, err := Run(cfg); err == nil {
		t.Fatal("Run accepted a parity flip without MultiLevel")
	}
}

// Storage lines land only on a store the driver wraps: a build function
// that never calls WrapStore gets the plan refused before the injected
// run, instead of a verdict on faults that never fired.
func TestChaosRejectsStorageFaultsNoStoreMeets(t *testing.T) {
	cfg := chaosBaseConfig(3)
	cfg.Faults = "storage-outage at 1s..3s\ncrash at 6s..7s"
	built := 0
	cfg.Workload = countingFactory{Factory: cfg.withDefaults().Workload, built: &built}
	_, err := ValidateReplayStore(cfg, nil, func(*des.Engine, *chaos.Driver) storage.Store { return storage.NewMemStore() })
	if err == nil {
		t.Fatal("storage faults accepted by a build function that never wrapped a store")
	}
	if built != 1 {
		t.Fatalf("%d runs built their computation, want only the reference", built)
	}
	out, err := ValidateReplayStore(cfg, nil, func(_ *des.Engine, d *chaos.Driver) storage.Store {
		return d.WrapStore(storage.NewMemStore())
	})
	if err != nil || out.Stats.OutageRefusals == 0 {
		t.Fatalf("wrapped store: %v, stats %+v", err, out.Stats)
	}

	// A decay line on store 1 needs a second WrapStore call: one is
	// refused before the injected run, and Run, which wraps only
	// Config.Store, refuses it before anything is built.
	cfg.Faults = "storage-decay transient 0.1 store 1\ncrash at 6s..7s"
	built = 0
	_, err = ValidateReplayStore(cfg, nil, func(_ *des.Engine, d *chaos.Driver) storage.Store {
		return d.WrapStore(storage.NewMemStore())
	})
	if err == nil || built != 1 {
		t.Fatalf("decay on an unwrapped store 1: err %v, %d runs built", err, built)
	}
	built = 0
	if _, err := Run(cfg); err == nil || built != 0 {
		t.Fatalf("Run accepted decay on store 1 (err %v, %d runs built)", err, built)
	}
}
