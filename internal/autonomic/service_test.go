package autonomic

// Chaos × service equivalence: the checkpoint-store service replaces the
// default hardened stack under the supervisor, the chaos plan tears the
// *application* apart (node crashes forcing restore-and-replay), and
// service-level faults — leader crash mid-batch, follower partition,
// follower brownout — tear the *storage* apart at the same time. The
// contract is unchanged: bit-identical final digests against a
// failure-free run, because the service never drops an acked write.

import (
	"testing"

	"repro/internal/chaos"
	"repro/internal/ckptstore"
	"repro/internal/des"
	"repro/internal/storage"
)

// crashAfterPuts wraps a store and fires a trigger immediately before
// the nth Put — the deterministic way to aim a leader crash inside an
// open batch window, with writes in flight behind it.
type crashAfterPuts struct {
	storage.Store
	puts    int
	fireAt  int
	trigger func()
}

func (c *crashAfterPuts) Put(key string, data []byte) error {
	c.puts++
	if c.puts == c.fireAt && c.trigger != nil {
		c.trigger()
	}
	return c.Store.Put(key, data)
}

// serviceStack builds the injected run's storage: a 3-replica
// checkpoint-store service on the injected engine, one follower wrapped
// by the chaos driver (so storage-brownout entries in the schedule land
// inside the replication group), a follower partition mid-run, and a
// leader crash aimed mid-batch. The returned store is the service
// client behind the standard retry layer, deadline-capped.
func serviceStack(crashOnPut int, partition bool) (func(*des.Engine, *chaos.Driver) storage.Store, **ckptstore.Service) {
	var svc *ckptstore.Service
	build := func(eng *des.Engine, driver *chaos.Driver) storage.Store {
		var err error
		svc, err = ckptstore.New(ckptstore.Config{
			Engine: eng,
			Replicas: []storage.Store{
				storage.NewMemStore(),
				driver.WrapStore(storage.NewMemStore()),
				storage.NewMemStore(),
			},
			// Generous admission so backpressure does not starve the
			// supervisor: this suite is about durability, not shedding.
			InFlightBudget: 1 << 30,
			ClientShare:    1.0,
			PromotionTime:  300 * des.Millisecond,
		})
		if err != nil {
			panic(err)
		}
		if partition {
			svc.PartitionFollower(2, 2*des.Second, 4*des.Second)
		}
		client := storage.Store(svc.Client(0))
		if crashOnPut > 0 {
			client = &crashAfterPuts{Store: client, fireAt: crashOnPut, trigger: svc.CrashLeader}
		}
		return storage.NewResilientStore(client, storage.RetryPolicy{
			MaxAttempts: 8, BaseDelay: des.Millisecond, MaxDelay: 100 * des.Millisecond,
			Deadline: des.Second, Seed: 11,
		})
	}
	return build, &svc
}

// TestServiceReplayEquivalence: leader crash mid-batch + follower
// partition + chaos storage brownout + node crashes, and the digests
// must still be bit-identical.
func TestServiceReplayEquivalence(t *testing.T) {
	sched, err := chaos.ParseSchedule(
		"crash at 1500ms..6s count 2 jitter 400ms\n" +
			"storage-brownout at 2s..5s rate 0.3")
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range chaosSeeds {
		build, svcp := serviceStack(25, true)
		out, err := ValidateReplayStore(chaosBaseConfig(seed), sched, build)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !out.Injected.Completed {
			t.Fatalf("seed %d: injected run did not complete", seed)
		}
		if out.Injected.Failures == 0 {
			t.Fatalf("seed %d: chaos plan injected no failures — test proves nothing", seed)
		}
		if !out.BitExact() {
			t.Errorf("seed %d: service replay not bit-exact (digests %v, checksum %v)",
				seed, out.DigestsMatch, out.ChecksumMatch)
		}
		st := (*svcp).Stats()
		if st.LeaderCrashes == 0 || st.Failovers == 0 {
			t.Errorf("seed %d: leader crash/failover did not happen: %+v", seed, st)
		}
		if st.AckedPuts == 0 {
			t.Errorf("seed %d: no puts acked through the service", seed)
		}
		// Never silently dropped: the service acked every put the retry
		// layer reported as succeeded, and the run restored through it.
		if st.ModeChanges == 0 {
			t.Errorf("seed %d: service never changed mode under faults: %+v", seed, st)
		}
	}
}

// TestServiceReplayCrashDuringPromotion: the leader dies mid-batch and
// the would-be successor dies inside the promotion window; the second
// election must still converge and the replay must stay bit-exact.
func TestServiceReplayCrashDuringPromotion(t *testing.T) {
	sched, err := chaos.ParseSchedule("crash at 1500ms..6s count 2 jitter 400ms")
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range chaosSeeds {
		var svc *ckptstore.Service
		build := func(eng *des.Engine, driver *chaos.Driver) storage.Store {
			var err error
			svc, err = ckptstore.New(ckptstore.Config{
				Engine: eng,
				Replicas: []storage.Store{
					storage.NewMemStore(), storage.NewMemStore(), storage.NewMemStore(),
				},
				InFlightBudget: 1 << 30,
				ClientShare:    1.0,
				PromotionTime:  300 * des.Millisecond,
			})
			if err != nil {
				panic(err)
			}
			client := &crashAfterPuts{Store: svc.Client(0), fireAt: 25, trigger: func() {
				svc.CrashLeader()
				// Kill the freshest follower halfway through the
				// promotion window; the protocol re-elects among the
				// survivors. Heal it later so quorum returns.
				eng.After(150*des.Millisecond, func() { svc.Crash(2) })
				eng.After(3*des.Second, func() { svc.Heal(2) })
			}}
			return storage.NewResilientStore(client, storage.RetryPolicy{
				MaxAttempts: 8, BaseDelay: des.Millisecond, MaxDelay: 100 * des.Millisecond,
				Deadline: des.Second, Seed: 11,
			})
		}
		out, err := ValidateReplayStore(chaosBaseConfig(seed), sched, build)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !out.Injected.Completed {
			t.Fatalf("seed %d: injected run did not complete", seed)
		}
		if !out.BitExact() {
			t.Errorf("seed %d: crash-during-promotion replay not bit-exact", seed)
		}
		st := svc.Stats()
		if st.Failovers == 0 {
			t.Errorf("seed %d: promotion never completed: %+v", seed, st)
		}
		if svc.Leader() != 1 {
			t.Errorf("seed %d: leader = %d, want 1 (the only survivor at election time)", seed, svc.Leader())
		}
	}
}

// TestServiceReplayDeterminism: the full service × chaos composition is
// itself deterministic — same seed, same schedule, same service stats.
func TestServiceReplayDeterminism(t *testing.T) {
	sched, err := chaos.ParseSchedule(
		"crash at 1500ms..6s count 2 jitter 400ms\nstorage-brownout at 2s..5s rate 0.3")
	if err != nil {
		t.Fatal(err)
	}
	run := func() (*ReplayOutcome, ckptstore.Stats) {
		build, svcp := serviceStack(25, true)
		out, err := ValidateReplayStore(chaosBaseConfig(7), sched, build)
		if err != nil {
			t.Fatal(err)
		}
		return out, (*svcp).Stats()
	}
	a, sa := run()
	b, sb := run()
	if sa != sb {
		t.Fatalf("service stats diverge across identical runs:\n%+v\n%+v", sa, sb)
	}
	if a.Injected.Checksum != b.Injected.Checksum || a.Injected.Elapsed != b.Injected.Elapsed {
		t.Fatalf("reports diverge: %+v vs %+v", a.Injected, b.Injected)
	}
}
