package autonomic

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/des"
	"repro/internal/kernels"
	"repro/internal/redundancy"
	"repro/internal/storage"
)

// TestReferenceDiscardsOnlyTheBytes: Reference writes its lines to a
// store that keeps nothing, because nothing in a failure-free run reads
// them back. Its report is the one Run gives for the same stripped
// config on a fresh MemStore that keeps every line — every field, the
// digests, checksum, elapsed and commit time, volume and line count
// included — for a backed stencil, a drained one-sided put ring and a
// multi-level hierarchy.
func TestReferenceDiscardsOnlyTheBytes(t *testing.T) {
	stencil := baseConfig()
	stencil.Faults, stencil.HeartbeatPeriod, stencil.TwoPhaseCommit = "crash every exp 3s", 50*des.Millisecond, true
	for name, cfg := range map[string]Config{
		"stencil":    stencil,
		"put drain":  rdmaConfig(RDMADrain),
		"multilevel": mlBaseConfig(7, MultiLevelOptions{Scheme: redundancy.Scheme{Kind: redundancy.RS, K: 2, M: 2}}),
	} {
		ref, err := Reference(cfg)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		kept := storage.NewMemStore()
		cfg.Faults, cfg.Store = "", kept
		cfg.TwoPhaseCommit, cfg.MultiLevel, cfg.HeartbeatPeriod, cfg.Spec = false, nil, 0, nil
		got, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: run on a MemStore: %v", name, err)
		}
		if n, _ := kept.Size(); n == 0 || got.CommittedLines == 0 {
			t.Fatalf("%s: the MemStore run kept %d bytes of %d lines; want some", name, n, got.CommittedLines)
		}
		if !ref.Completed || !reflect.DeepEqual(ref, got) {
			t.Errorf("%s: reference report differs from the kept-store run:\nreference %+v\nkept      %+v", name, ref, got)
		}
	}
}

// TestReportDoesNotPinItsRun: a held Report keeps none of its run
// alive — not the supervisor, and through it not the engine, the teams,
// their address spaces or the stores. The probe is the run's workload:
// a factory only the supervisor's config points to, whose finalizer
// runs once the supervisor is garbage.
func TestReportDoesNotPinItsRun(t *testing.T) {
	w := &StencilFactory{Nx: 32, RowsPerRank: 8, Boundary: 9, ComputeTime: 200 * des.Millisecond}
	freed := make(chan struct{})
	runtime.SetFinalizer(w, func(*StencilFactory) { close(freed) })
	cfg := baseConfig()
	cfg.Workload = w
	rep, err := Run(cfg)
	if err != nil || !rep.Completed {
		t.Fatalf("run: completed %v, %v", rep != nil && rep.Completed, err)
	}
	w, cfg = nil, Config{}
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-freed:
			runtime.KeepAlive(rep)
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Error("the supervisor outlives its run while its report is held")
	runtime.KeepAlive(rep)
}

// heal-stencil is the replay suite's largest reference: an 8-rank
// backed stencil, the benchmark's shape.
func healStencilConfig(seed uint64) Config {
	return Config{
		Ranks: 8, Nx: 256, RowsPerRank: 64, Boundary: 9,
		Iterations: 80, CkptEvery: 5,
		ComputeTime:     250 * des.Millisecond,
		RestartOverhead: des.Second,
		TwoPhaseCommit:  true,
		Seed:            seed,
	}
}

// valueFactoryConfigs are the replay suite's configs whose workload is
// a value factory (nil → StencilFactory, or PutFactory), at seed.
func valueFactoryConfigs(t *testing.T, seed uint64) map[string]Config {
	twoPhase := chaosBaseConfig(seed)
	twoPhase.TwoPhaseCommit = true
	xor := mlBaseConfig(seed, MultiLevelOptions{
		Scheme:  redundancy.Scheme{Kind: redundancy.XOR, K: 2, M: 1},
		Domains: mlDomains(t, 4, 1),
	})
	xor.TwoPhaseCommit = true
	drain, naive := rdmaConfig(RDMADrain), rdmaConfig(RDMANaive)
	drain.Seed, naive.Seed = seed, seed
	base := baseConfig()
	base.Seed = seed
	return map[string]Config{
		"chaos":          chaosBaseConfig(seed),
		"chaos 2pc":      twoPhase,
		"base":           base,
		"multilevel xor": xor,
		"multilevel rs":  mlBaseConfig(seed, MultiLevelOptions{Scheme: redundancy.Scheme{Kind: redundancy.RS, K: 2, M: 2}}),
		"put drain":      drain,
		"put naive":      naive,
		"heal-stencil":   healStencilConfig(seed),
	}
}

// ckptSetConfigs are A19's supervised kernels (experiments' ckptset
// sweep) at seed, each whole config followed by its spec config: the
// two differ only in Spec, which the reference strips.
func ckptSetConfigs(t *testing.T, seed uint64) []Config {
	spec, err := kernels.Spec()
	if err != nil {
		t.Fatal(err)
	}
	var out []Config
	for _, k := range []struct {
		name string
		n    int
	}{{"stencil", 64}, {"ssor", 64}, {"wavefront", 64}, {"adi", 64}, {"fft", 4096}} {
		whole := Config{
			Workload:    SoloFactory{Kernel: k.name, N: k.n, ComputeTime: 50 * des.Millisecond},
			Ranks:       1,
			Iterations:  12,
			CkptEvery:   3,
			ComputeTime: 50 * des.Millisecond,
			Seed:        seed,
		}
		speced := whole
		speced.Spec = spec
		out = append(out, whole, speced)
	}
	return out
}

// memoTrail returns the trail the memo holds for cfg's reference, nil
// when it holds none. A hit hands out the entry's own trail, so a
// reference whose trail is the one held before the call was a hit.
func memoTrail(cfg Config) *trailState {
	key, _ := referenceKey(referenceConfig(cfg))
	refMemo.Lock()
	defer refMemo.Unlock()
	if e, ok := refMemo.m[key]; ok && len(e.trail) > 0 {
		return &e.trail[0]
	}
	return nil
}

// TestReplayReferenceMemoIsSeedIndependent pins what the memo key
// relies on: a failure-free run does not read Seed. At every seed, the
// memoised Reference of each replay-suite config equals, field for
// field, a fresh Run of its stripped config at that seed. The first
// seed fills the memo; at the later ones the first call already hits:
// it hands out the entry's trail, and a hit allocates only its copy.
// A19's spec configs hit at every seed, on the entry their whole config
// filled, and so does every storage stack (Replicas, Store) on its plain
// config's entry: the reference strips the stack.
func TestReplayReferenceMemoIsSeedIndependent(t *testing.T) {
	check := func(name string, seed uint64, cfg Config, hit bool) {
		t.Helper()
		held := memoTrail(cfg)
		ref, tr, err := reference(cfg)
		if err != nil {
			t.Fatalf("%s seed %d: reference: %v", name, seed, err)
		}
		if hit {
			if held == nil || len(tr) == 0 || &tr[0] != held {
				t.Errorf("%s seed %d: the reference ran, want a memo hit", name, seed)
			}
			n := testing.AllocsPerRun(5, func() {
				if _, err := Reference(cfg); err != nil {
					t.Fatal(err)
				}
			})
			if n > 4 {
				t.Errorf("%s seed %d: a memo hit allocated %v times, want only its copy", name, seed, n)
			}
		}
		fresh, err := Run(referenceConfig(cfg))
		if err != nil {
			t.Fatalf("%s seed %d: fresh run: %v", name, seed, err)
		}
		if !ref.Completed || !reflect.DeepEqual(ref, fresh) {
			t.Errorf("%s seed %d: memoised reference differs from a fresh run:\nmemo  %+v\nfresh %+v", name, seed, ref, fresh)
		}
	}
	for i, seed := range []uint64{3, 5, 9} {
		for name, cfg := range valueFactoryConfigs(t, seed) {
			check(name, seed, cfg, i > 0)
			mirrored, backed := cfg, cfg
			mirrored.Replicas = 2
			backed.Store, backed.Replicas = storage.NewMemStore(), 1
			check(name+" mirrored", seed, mirrored, true)
			check(name+" backed", seed, backed, true)
		}
		for _, cfg := range ckptSetConfigs(t, seed) {
			name := fmt.Sprintf("A19 %s spec=%v", cfg.Workload.(SoloFactory).Kernel, cfg.Spec != nil)
			check(name, seed, cfg, i > 0 || cfg.Spec != nil)
		}
	}
}

// TestReplayReferenceRunsOtherFactoriesEveryCall: a factory's identity
// says nothing about its behaviour unless it is one of this package's
// value factories, so a decorator's reference is built on every call.
func TestReplayReferenceRunsOtherFactoriesEveryCall(t *testing.T) {
	var built int
	cfg := baseConfig()
	cfg.Workload = countingFactory{Factory: cfg.withDefaults().Workload, built: &built}
	for i := 0; i < 3; i++ {
		if _, err := Reference(cfg); err != nil {
			t.Fatal(err)
		}
	}
	if built != 3 {
		t.Errorf("3 references built %d computations, want 3", built)
	}
}

// TestReplayReferenceConcurrentCallsAgree: concurrent calls on one key,
// misses and hits alike, all return equal reports.
func TestReplayReferenceConcurrentCallsAgree(t *testing.T) {
	cfg := chaosBaseConfig(1)
	cfg.Iterations = 23 // a key no other test fills
	reps := make([]*Report, 6)
	var wg sync.WaitGroup
	for i := range reps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, err := Reference(cfg)
			if err != nil {
				t.Error(err)
			}
			reps[i] = rep
		}()
	}
	wg.Wait()
	for i, rep := range reps {
		if rep == nil || !rep.Completed || !reflect.DeepEqual(rep, reps[0]) {
			t.Fatalf("call %d: %+v, call 0: %+v", i, rep, reps[0])
		}
	}
}

// TestReplayReferenceHitsAreCopies: what a caller does to the report it
// was given never reaches the memo.
func TestReplayReferenceHitsAreCopies(t *testing.T) {
	cfg := rdmaConfig(RDMADrain)
	want, err := Run(referenceConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := Reference(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("call %d: %+v, want %+v", i, got, want)
		}
		got.Checksum++
		got.SpaceDigests[0] ^= 1
		got.SpaceDigests = append(got.SpaceDigests, 7)
		got.FailureLog = append(got.FailureLog, FailureEvent{Iter: 1})
		got.DrainPhaseTime[0]++
	}
}

// TestReplayReferenceCopiesStorageCounters: clone deep-copies the
// storage counters, so what a caller does to the copy it was given never
// reaches a memo entry that carries them. A reference strips the storage
// stack, so the entry here is planted.
func TestReplayReferenceCopiesStorageCounters(t *testing.T) {
	cfg := baseConfig()
	cfg.Iterations = 19 // a key no other test fills
	key, memo := referenceKey(referenceConfig(cfg))
	if !memo {
		t.Fatal("baseConfig's reference is not memoised")
	}
	planted := func() Report {
		return Report{
			Completed: true,
			Decay:     []chaos.StoreStats{{Ops: 1}},
			Retry:     []storage.RetryStats{{Retries: 2}},
			Mirror:    storage.MirrorStats{ReplicaErrors: []uint64{3, 4}},
		}
	}
	refMemo.Lock()
	refMemo.m[key] = refEntry{rep: planted()}
	refMemo.Unlock()
	defer func() {
		refMemo.Lock()
		delete(refMemo.m, key)
		refMemo.Unlock()
	}()
	for i := 0; i < 3; i++ {
		got, err := Reference(cfg)
		if want := planted(); err != nil || !reflect.DeepEqual(*got, want) {
			t.Fatalf("call %d: %+v (%v), want the planted entry %+v", i, got, err, want)
		}
		got.Decay[0].Ops++
		got.Retry[0].Retries++
		got.Mirror.ReplicaErrors[0]++
	}
}

// BenchmarkReferenceRun is one heal-stencil-shaped reference run per
// op: an 8-rank backed stencil cutting a line every 5 of 80 sweeps, the
// failure-free half of every replay validation. It runs the reference
// config directly, because Reference would answer every op after the
// first from its memo.
func BenchmarkReferenceRun(b *testing.B) {
	cfg := referenceConfig(healStencilConfig(0))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Completed {
			b.Fatal("reference run incomplete")
		}
	}
}
