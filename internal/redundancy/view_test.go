package redundancy

import (
	"errors"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/storage"
)

// restoreAndCheck restores every rank to the latest verifiable line
// through the view and compares memory digests against the fixture's
// pre-failure record.
func restoreAndCheck(t *testing.T, f *fixture, v *RecoveryView) uint64 {
	t.Helper()
	latest, ok, err := ckpt.LatestVerifiableSeq(v, f.h.Ranks())
	if err != nil || !ok {
		t.Fatalf("LatestVerifiableSeq: %v, %v", ok, err)
	}
	if latest != uint64(f.lines-1) {
		t.Fatalf("latest verifiable = %d, want %d", latest, f.lines-1)
	}
	spaces, err := ckpt.RestoreAll(v, f.h.Ranks(), latest)
	if err != nil {
		t.Fatal(err)
	}
	for i, sp := range spaces {
		if got := sp.Digest(nil); got != f.digests[i] {
			t.Fatalf("rank %d digest %#x, want %#x — restore not bit-exact", i, got, f.digests[i])
		}
	}
	return latest
}

func TestViewHealthyReadsStayLocal(t *testing.T) {
	f := buildFixture(t, Config{
		Scheme:      Scheme{Kind: XOR, K: 2, M: 1},
		Domains:     domains(t, 4, 1),
		Global:      storage.NewMemStore(),
		GlobalEvery: 1000,
	}, 4)
	v := f.h.NewView()
	restoreAndCheck(t, f, v)
	st := v.Stats()
	if st.LevelReads[LevelLocal] == 0 || st.LevelReads[LevelParity] != 0 || st.LevelReads[LevelGlobal] != 0 {
		t.Fatalf("healthy stats = %+v", st)
	}
	if st.Rebuilds != 0 || st.RepairedBack != 0 {
		t.Fatalf("healthy run rebuilt: %+v", st)
	}
}

// One lost rank rebuilds its whole chain from XOR parity without a
// single global-store read — the zero-L3 property of the L2 tier.
func TestViewRebuildsLostRankWithoutL3(t *testing.T) {
	f := buildFixture(t, Config{
		Scheme:      Scheme{Kind: XOR, K: 2, M: 1},
		Domains:     domains(t, 4, 1),
		Global:      storage.NewMemStore(),
		GlobalEvery: 1000,
	}, 4)
	victim := f.h.Groups()[0].Members[0]
	if err := f.h.WipeRank(victim); err != nil {
		t.Fatal(err)
	}
	v := f.h.NewView()
	latest := restoreAndCheck(t, f, v)
	st := v.Stats()
	if st.LevelReads[LevelParity] == 0 || st.Rebuilds == 0 {
		t.Fatalf("no L2 rebuilds: %+v", st)
	}
	if st.LevelReads[LevelGlobal] != 0 || st.LevelBytes[LevelGlobal] != 0 {
		t.Fatalf("global store touched: %+v", st)
	}
	if st.RepairedBack == 0 || st.RepairWriteFailures != 0 {
		t.Fatalf("read-repair stats = %+v", st)
	}
	// Read-repair healed the victim's L1 for the next recovery.
	if _, err := f.h.Local(victim).Get(ckpt.SegmentKey(victim, latest)); err != nil {
		t.Fatalf("repaired segment not back on L1: %v", err)
	}
}

// countGets is a store that counts its Gets.
type countGets struct {
	storage.Store
	n int
}

func (s *countGets) Get(key string) ([]byte, error) {
	s.n++
	return s.Store.Get(key)
}

// chainOf returns how many segments rank's chain to line holds and
// their encoded bytes, read through a fresh view.
func chainOf(t *testing.T, f *fixture, rank int, line uint64) (segs int, bytes uint64) {
	t.Helper()
	c := &countGets{Store: f.h.NewView()}
	n, err := ckpt.ChainVolume(c, rank, line)
	if err != nil {
		t.Fatal(err)
	}
	return c.n, n
}

// recoverOnce is one recovery through a fresh view: the newest line,
// restored bit-exact, with the view's stats.
func recoverOnce(t *testing.T, f *fixture) (ckpt.Recovered, ViewStats) {
	t.Helper()
	v := f.h.NewView()
	rec, ok, err := ckpt.RestoreLatest(v, f.h.Ranks(), false, nil)
	if err != nil || !ok || rec.Seq != uint64(f.lines-1) {
		t.Fatalf("RestoreLatest = line %d, %v, %v; want %d", rec.Seq, ok, err, f.lines-1)
	}
	for i, sp := range rec.Spaces {
		if got := sp.Digest(nil); got != f.digests[i] {
			t.Fatalf("rank %d digest %#x, want %#x — restore not bit-exact", i, got, f.digests[i])
		}
	}
	return rec, v.Stats()
}

// A recovery through the view reads each chain segment once: over a
// healthy hierarchy it charges Σ LevelBytes = the line's chain bytes, in
// one Get per segment, all from L1.
func TestViewRecoveryChargesEachChainByteOnce(t *testing.T) {
	f := buildFixture(t, Config{
		Scheme:      Scheme{Kind: XOR, K: 2, M: 1},
		Domains:     domains(t, 4, 1),
		Global:      storage.NewMemStore(),
		GlobalEvery: 1000,
	}, 4)
	rec, st := recoverOnce(t, f)
	var segs int
	var chain uint64
	for r := 0; r < f.h.Ranks(); r++ {
		n, b := chainOf(t, f, r, rec.Seq)
		segs, chain = segs+n, chain+b
	}
	reads := st.LevelReads[LevelLocal] + st.LevelReads[LevelParity] + st.LevelReads[LevelGlobal]
	charged := st.LevelBytes[LevelLocal] + st.LevelBytes[LevelParity] + st.LevelBytes[LevelGlobal]
	if reads != uint64(segs) || charged != chain || rec.Bytes != chain {
		t.Fatalf("charged %d B in %d Gets (restore read %d B) for a %d-segment line of %d B", charged, reads, rec.Bytes, segs, chain)
	}
	if st.LevelBytes[LevelLocal] != chain {
		t.Fatalf("healthy recovery left L1: %+v", st)
	}
}

// The same over a lost rank rebuilt from parity: each lost segment is
// rebuilt once, the view still charges each chain byte once, and L2
// serves at least the lost chain and at most its group's chains.
func TestViewRecoveryChargesRebuiltBytesOnce(t *testing.T) {
	f := buildFixture(t, Config{
		Scheme:      Scheme{Kind: XOR, K: 2, M: 1},
		Domains:     domains(t, 4, 1),
		Global:      storage.NewMemStore(),
		GlobalEvery: 1000,
	}, 4)
	g := f.h.Groups()[0]
	victim := g.Members[0]
	if err := f.h.WipeRank(victim); err != nil {
		t.Fatal(err)
	}
	rec, st := recoverOnce(t, f)
	var chain, group uint64
	lostSegs, lost := chainOf(t, f, victim, rec.Seq)
	for r := 0; r < f.h.Ranks(); r++ {
		_, b := chainOf(t, f, r, rec.Seq)
		chain += b
		if slices.Contains(g.Members, r) {
			group += b
		}
	}
	charged := st.LevelBytes[LevelLocal] + st.LevelBytes[LevelParity] + st.LevelBytes[LevelGlobal]
	if charged != chain || rec.Bytes != chain {
		t.Fatalf("charged %d B (restore read %d B) for a line of %d B: %+v", charged, rec.Bytes, chain, st)
	}
	if l2 := st.LevelBytes[LevelParity]; l2 < lost || l2 > group || st.LevelBytes[LevelGlobal] != 0 {
		t.Fatalf("L2 served %d B; the lost chain is %d B, its group's chains %d B: %+v", l2, lost, group, st)
	}
	if st.Rebuilds != uint64(lostSegs) {
		t.Fatalf("%d rebuilds for a lost chain of %d segments", st.Rebuilds, lostSegs)
	}
}

// RS k+2 absorbs two simultaneous member losses in one group — the
// m-loss capacity the erasure codec buys over XOR.
func TestViewRebuildsDoubleLossRS(t *testing.T) {
	f := buildFixture(t, Config{
		Scheme:      Scheme{Kind: RS, K: 2, M: 2},
		Domains:     domains(t, 8, 1),
		Global:      storage.NewMemStore(),
		GlobalEvery: 1000,
	}, 4)
	g := f.h.Groups()[0]
	for _, r := range g.Members {
		if err := f.h.WipeRank(r); err != nil {
			t.Fatal(err)
		}
	}
	v := f.h.NewView()
	restoreAndCheck(t, f, v)
	st := v.Stats()
	if st.Rebuilds == 0 || st.LevelReads[LevelGlobal] != 0 {
		t.Fatalf("double-loss stats = %+v", st)
	}
}

// A corrupt parity shard is detected by the frame CRC and the read
// degrades to L3 — never a torn restore.
func TestViewCorruptParityDegradesToL3(t *testing.T) {
	f := buildFixture(t, Config{
		Scheme:      Scheme{Kind: XOR, K: 2, M: 1},
		Domains:     domains(t, 4, 1),
		Global:      storage.NewMemStore(),
		GlobalEvery: 1, // every line on L3, so the last tier can serve
	}, 4)
	victim := f.h.Groups()[0].Members[0]
	if err := f.h.WipeRank(victim); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(11, 7))
	if _, ok := f.h.CorruptParity(2, rng); !ok {
		t.Fatal("nothing corrupted")
	}
	v := f.h.NewView()
	restoreAndCheck(t, f, v)
	st := v.Stats()
	if st.CorruptShards == 0 {
		t.Fatalf("corruption undetected: %+v", st)
	}
	if st.LevelReads[LevelGlobal] == 0 {
		t.Fatalf("corrupt shard did not degrade to L3: %+v", st)
	}
	// Lines with intact parity still rebuilt at L2.
	if st.Rebuilds == 0 {
		t.Fatalf("no L2 rebuilds at all: %+v", st)
	}
}

// An undecodable L1 copy (at-rest rot below any envelope) is treated as
// lost, not trusted: the read silently falls through to a rebuild.
func TestViewDistrustsRottenLocalCopy(t *testing.T) {
	f := buildFixture(t, Config{
		Scheme:      Scheme{Kind: XOR, K: 2, M: 1},
		Domains:     domains(t, 4, 1),
		Global:      storage.NewMemStore(),
		GlobalEvery: 1000,
	}, 3)
	victim := f.h.Groups()[0].Members[0]
	key := ckpt.SegmentKey(victim, 1)
	if err := f.h.Local(victim).Put(key, []byte("rotten bytes")); err != nil {
		t.Fatal(err)
	}
	v := f.h.NewView()
	restoreAndCheck(t, f, v)
	if st := v.Stats(); st.Rebuilds == 0 || st.LevelReads[LevelGlobal] != 0 {
		t.Fatalf("rot stats = %+v", st)
	}
}

// Regression: a rank whose L1 is a MirrorStore with a dead replica
// accepts the post-rebuild read-repair write-back on the surviving
// replica, surfaces the lost copy in PutQuorumFailures, and serves the
// repaired segment from L1 afterwards.
func TestViewReadRepairThroughDegradedMirror(t *testing.T) {
	var mirror *storage.MirrorStore
	var deadReplica *deadStore
	victim := -1
	cfg := Config{
		Scheme:      Scheme{Kind: XOR, K: 2, M: 1},
		Domains:     domains(t, 4, 1),
		Global:      storage.NewMemStore(),
		GlobalEvery: 1000,
	}
	cfg.NewLocal = func(rank int) storage.Store {
		if rank != 0 {
			return storage.NewMemStore()
		}
		victim = rank
		deadReplica = &deadStore{Store: storage.NewMemStore()}
		m, err := storage.NewMirrorStore(deadReplica, storage.NewMemStore())
		if err != nil {
			panic(err)
		}
		mirror = m
		return m
	}
	f := buildFixture(t, cfg, 3)
	if victim != 0 || mirror == nil {
		t.Fatal("mirror-backed rank not built")
	}
	// Lose the rank's chain while both replicas are up, then lose one
	// replica: the read-repair write-back can only land a minority.
	if err := f.h.WipeRank(victim); err != nil {
		t.Fatal(err)
	}
	deadReplica.down = true
	before := mirror.Stats().PutQuorumFailures

	v := f.h.NewView()
	latest := restoreAndCheck(t, f, v)
	st := v.Stats()
	if st.Rebuilds == 0 || st.RepairedBack == 0 || st.RepairWriteFailures != 0 {
		t.Fatalf("repair stats = %+v", st)
	}
	after := mirror.Stats()
	if after.PutQuorumFailures <= before {
		t.Fatalf("minority write-back not surfaced: %d -> %d", before, after.PutQuorumFailures)
	}
	if after.DegradedPuts == 0 {
		t.Fatalf("mirror stats = %+v", after)
	}
	// The repaired copy is readable back at L1 through the mirror.
	data, err := f.h.Local(victim).Get(ckpt.SegmentKey(victim, latest))
	if err != nil {
		t.Fatalf("repaired copy not on L1: %v", err)
	}
	if _, err := ckpt.DecodeSegment(data); err != nil {
		t.Fatalf("repaired copy undecodable: %v", err)
	}
}

// A fully dead L1 makes the write-back fail: the read still succeeds
// (best-effort repair) and the miss is tallied.
func TestViewRepairWriteFailureIsBestEffort(t *testing.T) {
	var replicas []*deadStore
	cfg := Config{
		Scheme:      Scheme{Kind: XOR, K: 2, M: 1},
		Domains:     domains(t, 4, 1),
		Global:      storage.NewMemStore(),
		GlobalEvery: 1000,
	}
	cfg.NewLocal = func(rank int) storage.Store {
		if rank != 0 {
			return storage.NewMemStore()
		}
		a := &deadStore{Store: storage.NewMemStore()}
		b := &deadStore{Store: storage.NewMemStore()}
		replicas = []*deadStore{a, b}
		m, err := storage.NewMirrorStore(a, b)
		if err != nil {
			panic(err)
		}
		return m
	}
	f := buildFixture(t, cfg, 3)
	if err := f.h.WipeRank(0); err != nil {
		t.Fatal(err)
	}
	for _, r := range replicas {
		r.down = true
	}
	v := f.h.NewView()
	restoreAndCheck(t, f, v)
	if st := v.Stats(); st.RepairWriteFailures == 0 || st.LevelReads[LevelGlobal] != 0 {
		t.Fatalf("best-effort stats = %+v", st)
	}
}

func TestViewKeysSynthesizeLostSegments(t *testing.T) {
	f := buildFixture(t, Config{
		Scheme:      Scheme{Kind: XOR, K: 2, M: 1},
		Domains:     domains(t, 4, 1),
		Global:      storage.NewMemStore(),
		GlobalEvery: 1000,
	}, 3)
	victim := f.h.Groups()[0].Members[0]
	if err := f.h.WipeRank(victim); err != nil {
		t.Fatal(err)
	}
	v := f.h.NewView()
	keys, err := v.Keys()
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]bool)
	for seq := uint64(0); seq < 3; seq++ {
		want[ckpt.SegmentKey(victim, seq)] = true
	}
	for _, k := range keys {
		delete(want, k)
	}
	if len(want) != 0 {
		t.Fatalf("wiped rank's segments missing from Keys: %v", want)
	}
	if n, err := v.Size(); err != nil || n == 0 {
		t.Fatalf("Size = %d, %v", n, err)
	}
}

func TestViewIsReadOnly(t *testing.T) {
	f := buildFixture(t, Config{
		Scheme:  Scheme{Kind: XOR, K: 2, M: 1},
		Domains: domains(t, 4, 1),
		Global:  storage.NewMemStore(),
	}, 1)
	v := f.h.NewView()
	if err := v.Put("k", nil); !errors.Is(err, storage.ErrUnavailable) {
		t.Fatalf("Put: %v", err)
	}
	if err := v.Delete("k"); !errors.Is(err, storage.ErrUnavailable) {
		t.Fatalf("Delete: %v", err)
	}
}

// Regression: keys that are not what ckpt.SegmentKey prints — signed,
// unpadded or out-of-range ranks — used to reach the L1 index (rank-1
// panicked with index out of range [-1]). A foreign key is an L3 miss.
func TestViewRejectsForeignKeys(t *testing.T) {
	f := buildFixture(t, Config{
		Scheme:  Scheme{Kind: XOR, K: 2, M: 1},
		Domains: domains(t, 4, 1),
		Global:  storage.NewMemStore(),
	}, 1)
	v := f.h.NewView()
	for _, key := range []string{
		"rank-1/seg0", "rank-01/seg000000", "rank+3/seg+07", "rank1/seg2",
		ckpt.SegmentKey(4, 0), ckpt.SegmentKey(1<<40, 0), "parity/g000/seq000000/s02", "",
	} {
		if data, err := v.Get(key); !errors.Is(err, storage.ErrNotFound) {
			t.Errorf("Get(%q) = %d bytes, %v; want ErrNotFound", key, len(data), err)
		}
	}
	if st := v.Stats(); st != (ViewStats{}) {
		t.Fatalf("misses were accounted: %+v", st)
	}
}

// deadStore stands in for a lost L1 replica: once down, every call
// fails with storage.ErrUnavailable.
type deadStore struct {
	storage.Store
	down bool
}

func (s *deadStore) Put(key string, data []byte) error {
	if s.down {
		return storage.ErrUnavailable
	}
	return s.Store.Put(key, data)
}

func (s *deadStore) Get(key string) ([]byte, error) {
	if s.down {
		return nil, storage.ErrUnavailable
	}
	return s.Store.Get(key)
}

func (s *deadStore) Delete(key string) error {
	if s.down {
		return storage.ErrUnavailable
	}
	return s.Store.Delete(key)
}

func (s *deadStore) Keys() ([]string, error) {
	if s.down {
		return nil, storage.ErrUnavailable
	}
	return s.Store.Keys()
}

func (s *deadStore) Size() (uint64, error) {
	if s.down {
		return 0, storage.ErrUnavailable
	}
	return s.Store.Size()
}
