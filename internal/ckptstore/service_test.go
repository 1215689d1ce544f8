package ckptstore

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/des"
	"repro/internal/storage"
)

// newTestService builds a 3-replica service over MemStores with fast
// defaults suitable for unit tests. Returns the service, its engine,
// and the raw replicas for inspection.
func newTestService(t *testing.T, mutate func(*Config)) (*Service, *des.Engine, []*storage.MemStore) {
	t.Helper()
	eng := des.NewEngine()
	mems := []*storage.MemStore{storage.NewMemStore(), storage.NewMemStore(), storage.NewMemStore()}
	cfg := Config{
		Engine:   eng,
		Replicas: []storage.Store{mems[0], mems[1], mems[2]},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return svc, eng, mems
}

func TestServiceBasicOpsThroughFrames(t *testing.T) {
	svc, _, mems := newTestService(t, nil)
	c := svc.Client(1)
	if err := c.Put("a", []byte("alpha")); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("b", []byte("beta")); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("alpha")) {
		t.Fatalf("Get = %q", got)
	}
	keys, err := c.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || keys[0] != "a" || keys[1] != "b" {
		t.Fatalf("Keys = %v", keys)
	}
	n, err := c.Size()
	if err != nil {
		t.Fatal(err)
	}
	if n != 9 {
		t.Fatalf("Size = %d, want 9", n)
	}
	if err := c.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("a"); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("Get after Delete: %v", err)
	}
	// Quorum-replicated: every replica holds the surviving key.
	for i, m := range mems {
		if _, err := m.Get("b"); err != nil {
			t.Fatalf("replica %d missing quorum write: %v", i, err)
		}
	}
	st := svc.Stats()
	if st.SyncAcks != 2 || st.QuorumFailures != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if svc.mode != ModeSync {
		t.Fatalf("mode = %v, want sync", svc.mode)
	}
}

func TestServiceDegradesToAsyncAndDrains(t *testing.T) {
	svc, eng, mems := newTestService(t, nil)
	c := svc.Client(0)
	// Take two followers out: writes land on the leader only — under
	// quorum, so the service must journal the debt and ack async.
	svc.Crash(1)
	svc.Crash(2)
	if err := c.Put("k", []byte("v")); err != nil {
		t.Fatalf("under-quorum put must still ack: %v", err)
	}
	st := svc.Stats()
	if st.AsyncAcks != 1 || st.QuorumFailures != 1 {
		t.Fatalf("stats after degraded put: %+v", st)
	}
	if svc.mode != ModeAsync {
		t.Fatalf("mode = %v, want async", svc.mode)
	}
	// The acked value is readable while degraded (served from journal).
	if got, err := c.Get("k"); err != nil || !bytes.Equal(got, []byte("v")) {
		t.Fatalf("degraded Get = %q, %v", got, err)
	}
	// Heal the followers; the next drain tick retires the debt.
	svc.Heal(1)
	svc.Heal(2)
	eng.Run(eng.Now() + des.Second)
	if _, err := mems[2].Get("k"); err != nil {
		t.Fatalf("drain did not replicate journaled write: %v", err)
	}
	st = svc.Stats()
	if st.DrainedBytes != 1 {
		t.Fatalf("DrainedBytes = %d, want 1", st.DrainedBytes)
	}
	if svc.mode != ModeSync {
		t.Fatalf("mode after drain = %v, want sync", svc.mode)
	}
}

func TestServiceSpillsWhenAllReplicasDown(t *testing.T) {
	svc, _, _ := newTestService(t, nil)
	for i := 0; i < 3; i++ {
		svc.Crash(i)
	}
	c := svc.Client(0)
	if err := c.Put("k", []byte("v")); err != nil {
		t.Fatalf("spill-mode put must ack: %v", err)
	}
	if st := svc.Stats(); st.SpillAcks == 0 {
		t.Fatalf("stats: %+v", st)
	}
	if got, err := c.Get("k"); err != nil || !bytes.Equal(got, []byte("v")) {
		t.Fatalf("spill Get = %q, %v", got, err)
	}
}

func TestServiceRefusesWhenSpillFull(t *testing.T) {
	svc, _, _ := newTestService(t, nil)
	svc.spillCap = 8 // 256 MiB of spill is out of test scale
	for i := 0; i < 3; i++ {
		svc.Crash(i)
	}
	c := svc.Client(0)
	if err := c.Put("a", []byte("12345678")); err != nil {
		t.Fatal(err)
	}
	err := c.Put("b", []byte("x"))
	if !errors.Is(err, storage.ErrOverload) {
		t.Fatalf("full spill journal: %v, want ErrOverload", err)
	}
	if !storage.IsTransient(err) {
		t.Fatal("spill refusal must stay retryable")
	}
}

func TestServiceAdmissionBudget(t *testing.T) {
	svc, _, _ := newTestService(t, func(c *Config) {
		c.InFlightBudget = 100
		c.ClientShare = 1.0
	})
	c := svc.Client(0)
	if err := c.Put("a", make([]byte, 80)); err != nil {
		t.Fatal(err)
	}
	// The engine has not run, so the first put's bytes are still in
	// flight: the second must be shed.
	err := c.Put("b", make([]byte, 80))
	if !errors.Is(err, storage.ErrOverload) || !storage.IsTransient(err) {
		t.Fatalf("over-budget put: %v, want retryable ErrOverload", err)
	}
	if st := svc.Stats(); st.OverloadSheds != 1 {
		t.Fatalf("OverloadSheds = %d", st.OverloadSheds)
	}
}

func TestServicePerClientFairness(t *testing.T) {
	svc, _, _ := newTestService(t, func(c *Config) {
		c.InFlightBudget = 1000
		c.ClientShare = 0.1 // 100 bytes per client
	})
	hog, other := svc.Client(1), svc.Client(2)
	if err := hog.Put("a", make([]byte, 90)); err != nil {
		t.Fatal(err)
	}
	if err := hog.Put("b", make([]byte, 90)); !errors.Is(err, storage.ErrOverload) {
		t.Fatalf("hog's second put: %v, want ErrOverload", err)
	}
	// Global budget still has room: another client is not punished for
	// the hog's appetite.
	if err := other.Put("c", make([]byte, 90)); err != nil {
		t.Fatalf("victim client shed too: %v", err)
	}
	if st := svc.Stats(); st.FairnessSheds != 1 {
		t.Fatalf("FairnessSheds = %d", st.FairnessSheds)
	}
}

func TestServiceDeadlineRefusal(t *testing.T) {
	// A slow replica model makes a large put's completion exceed the
	// deadline; the service must refuse it up front, permanently.
	svc, _, _ := newTestService(t, func(c *Config) {
		c.OpDeadline = des.Millisecond
		c.ReplicaModel = storage.Model{Name: "slow", Latency: 0, Bandwidth: 1e6} // 1 MB/s
	})
	c := svc.Client(0)
	err := c.Put("big", make([]byte, 1<<20)) // ~1 s of device time
	if !errors.Is(err, storage.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	if storage.IsTransient(err) {
		t.Fatal("deadline refusal must be permanent")
	}
	if st := svc.Stats(); st.DeadlineRefusals != 1 || st.AckedPuts != 0 {
		t.Fatalf("stats: %+v", st)
	}
	// A small put fits and still goes through.
	if err := c.Put("small", make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
}

func TestServiceBatchingAndCoalescing(t *testing.T) {
	svc, eng, _ := newTestService(t, nil)
	a, b := svc.Client(1), svc.Client(2)
	// Three puts inside one window: one batch; the duplicate key is
	// write-coalesced.
	if err := a.Put("x", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := b.Put("y", []byte("w")); err != nil {
		t.Fatal(err)
	}
	if err := a.Put("x", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	if st.Batches != 1 {
		t.Fatalf("Batches = %d, want 1", st.Batches)
	}
	if st.CoalescedPuts != 1 {
		t.Fatalf("CoalescedPuts = %d, want 1", st.CoalescedPuts)
	}
	// After the window closes, a new put opens a new batch.
	eng.Run(eng.Now() + 20*des.Millisecond)
	if err := a.Put("z", []byte("u")); err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats(); st.Batches != 2 {
		t.Fatalf("Batches = %d, want 2", st.Batches)
	}
}

func TestServiceLeaderFailover(t *testing.T) {
	svc, eng, _ := newTestService(t, nil)
	c := svc.Client(0)
	// Give follower 2 more applied ops than follower 1 by writing while
	// all are up, then make follower 1 miss a write.
	if err := c.Put("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	svc.Crash(1)
	if err := c.Put("b", []byte("2")); err != nil { // lands on 0 and 2 only
		t.Fatal(err)
	}
	svc.Heal(1)
	svc.CrashLeader()
	if svc.mode != ModeSpill {
		t.Fatalf("mode during promotion = %v, want spill", svc.mode)
	}
	// Writes during promotion spill and still ack.
	if err := c.Put("c", []byte("3")); err != nil {
		t.Fatalf("put during promotion: %v", err)
	}
	eng.Run(eng.Now() + des.Second)
	st := svc.Stats()
	if st.LeaderCrashes != 1 || st.Failovers != 1 {
		t.Fatalf("stats: %+v", st)
	}
	// Freshest follower wins: replica 2 (applied 2) over replica 1
	// (applied 1).
	if svc.Leader() != 2 {
		t.Fatalf("Leader = %d, want 2 (freshest)", svc.Leader())
	}
	// Nothing acked was lost across the failover.
	for _, k := range []string{"a", "b", "c"} {
		if _, err := c.Get(k); err != nil {
			t.Fatalf("acked key %q lost in failover: %v", k, err)
		}
	}
}

func TestServiceCrashDuringPromotion(t *testing.T) {
	svc, eng, _ := newTestService(t, func(c *Config) { c.PromotionTime = 100 * des.Millisecond })
	c := svc.Client(0)
	if err := c.Put("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	svc.CrashLeader()
	// The would-be successor dies inside the promotion window; the
	// protocol must re-run the election and pick the survivor.
	eng.After(50*des.Millisecond, func() { svc.Crash(2) })
	eng.Run(eng.Now() + des.Second)
	if svc.Leader() != 1 {
		t.Fatalf("Leader = %d, want 1 (the survivor)", svc.Leader())
	}
	if st := svc.Stats(); st.Failovers != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if _, err := c.Get("a"); err != nil {
		t.Fatalf("acked key lost: %v", err)
	}
}

func TestServicePromotionRestartsWhenNoSurvivor(t *testing.T) {
	svc, eng, _ := newTestService(t, func(c *Config) { c.PromotionTime = 100 * des.Millisecond })
	for i := 0; i < 3; i++ {
		svc.Crash(i)
	}
	eng.Run(eng.Now() + 350*des.Millisecond)
	if st := svc.Stats(); st.PromotionRestarts == 0 {
		t.Fatalf("promotion should re-arm with no survivor: %+v", st)
	}
	// A heal lets the stalled election complete.
	svc.Heal(1)
	eng.Run(eng.Now() + 300*des.Millisecond)
	if svc.Leader() != 1 {
		t.Fatalf("Leader = %d, want 1 after heal", svc.Leader())
	}
}

// writeChain stores a verifiable checkpoint chain for rank through the
// given store: a full base at seq 1 and incrementals after it.
func writeChain(t *testing.T, store storage.Store, rank int, upto uint64) {
	t.Helper()
	const pageSize = 64
	for seq := uint64(1); seq <= upto; seq++ {
		kind := ckpt.Incremental
		if seq == 1 {
			kind = ckpt.Full
		}
		seg := &ckpt.Segment{
			Rank: rank, Seq: seq, Epoch: 1, Kind: kind, PageSize: pageSize,
			Regions: []ckpt.RegionInfo{{Start: 0, Size: pageSize}},
			Pages:   []ckpt.PageRecord{{Addr: 0, Data: bytes.Repeat([]byte{byte(seq)}, pageSize)}},
		}
		if err := store.Put(ckpt.SegmentKey(rank, seq), seg.Encode()); err != nil {
			t.Fatalf("rank %d seq %d: %v", rank, seq, err)
		}
	}
}

func TestServiceRecoveryLineWithRealSegments(t *testing.T) {
	svc, _, _ := newTestService(t, nil)
	const ranks = 2
	// Write verifiable incremental chains through per-rank clients.
	for rank := 0; rank < ranks; rank++ {
		writeChain(t, svc.Client(uint32(rank)), rank, 3)
	}
	seq, ok, err := svc.RecoveryLine(ranks)
	if err != nil || !ok || seq != 3 {
		t.Fatalf("RecoveryLine = %d, %v, %v; want 3, true, nil", seq, ok, err)
	}
	// VerifyChain against the service view: every rank's chain is whole.
	for rank := 0; rank < ranks; rank++ {
		if err := ckpt.VerifyChain(svc.View(), rank, seq); err != nil {
			t.Fatalf("VerifyChain rank %d: %v", rank, err)
		}
	}
}

func TestServiceDeterministicAcrossRuns(t *testing.T) {
	run := func() (Stats, []des.Time, []Transition, int) {
		svc, eng, _ := newTestService(t, func(c *Config) { c.PromotionTime = 100 * des.Millisecond })
		clients := []*Client{svc.Client(0), svc.Client(1), svc.Client(2), svc.Client(3)}
		tick := eng.NewTicker(5*des.Millisecond, func(at des.Time) {
			for i, c := range clients {
				key := fmt.Sprintf("rank%03d/seg%06d", i, uint64(at)/uint64(5*des.Millisecond))
				_ = c.Put(key, bytes.Repeat([]byte{byte(i)}, 4096))
			}
		})
		eng.Schedule(50*des.Millisecond, svc.CrashLeader)
		svc.PartitionFollower(1, 120*des.Millisecond, 220*des.Millisecond)
		eng.Run(500 * des.Millisecond)
		tick.Stop()
		return svc.Stats(), svc.PutLatencies(), svc.Transitions(), svc.Leader()
	}
	s1, l1, t1, lead1 := run()
	s2, l2, t2, lead2 := run()
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("stats differ across identical runs:\n%+v\n%+v", s1, s2)
	}
	if !reflect.DeepEqual(l1, l2) {
		t.Fatal("put latencies differ across identical runs")
	}
	if !reflect.DeepEqual(t1, t2) {
		t.Fatal("mode transitions differ across identical runs")
	}
	if lead1 != lead2 {
		t.Fatalf("leaders differ: %d vs %d", lead1, lead2)
	}
	if s1.Failovers == 0 || s1.AckedPuts == 0 {
		t.Fatalf("scenario too quiet to be meaningful: %+v", s1)
	}
}
