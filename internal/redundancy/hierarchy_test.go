package redundancy

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/mem"
	"repro/internal/mpi"
	"repro/internal/storage"
)

// fixture is a hierarchy with real checkpoint chains: ranks run
// coordinated checkpoints through their RankStores, every committed line
// is parity-protected, and the pre-failure memory digests are recorded
// for bit-exactness checks.
type fixture struct {
	h       *Hierarchy
	spaces  []*mem.AddressSpace
	digests []uint64
	lines   int
}

func domains(t *testing.T, ranks, size int) *cluster.DomainMap {
	t.Helper()
	dm, err := cluster.NewDomainMap(ranks, size)
	if err != nil {
		t.Fatal(err)
	}
	return dm
}

// buildFixture drives the given hierarchy config through lines
// coordinated checkpoints with per-line mutations, parity-protecting
// each line.
func buildFixture(t *testing.T, cfg Config, lines int) *fixture {
	t.Helper()
	if cfg.Net == (mpi.Network{}) {
		cfg.Net = mpi.QsNet()
	}
	h, err := NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := des.NewEngine()
	f := &fixture{h: h, lines: lines}
	var cps []*ckpt.Checkpointer
	var regions []*mem.Region
	for i := 0; i < h.Ranks(); i++ {
		sp := mem.NewAddressSpace(mem.Config{PageSize: 512})
		r, err := sp.Mmap(4 * 512)
		if err != nil {
			t.Fatal(err)
		}
		sp.Write(r.Start(), bytes.Repeat([]byte{byte(i + 1)}, 4*512))
		c, err := ckpt.NewCheckpointer(eng, sp, ckpt.Options{Rank: i, Store: h.RankStore(i)})
		if err != nil {
			t.Fatal(err)
		}
		c.Start()
		t.Cleanup(c.Stop)
		cps = append(cps, c)
		f.spaces = append(f.spaces, sp)
		regions = append(regions, r)
	}
	co, err := ckpt.NewCoordinator(eng, cps)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < lines; n++ {
		if n > 0 {
			for i, sp := range f.spaces {
				sp.Write(regions[i].Start()+uint64(n%4)*512, bytes.Repeat([]byte{byte(i*16 + n)}, 512))
			}
		}
		if _, err := co.GlobalCheckpoint(); err != nil {
			t.Fatal(err)
		}
		if _, err := h.EncodeLine(uint64(n)); err != nil {
			t.Fatal(err)
		}
	}
	for _, sp := range f.spaces {
		f.digests = append(f.digests, sp.Digest(nil))
	}
	return f
}

func TestPlacementDomainDisjoint(t *testing.T) {
	for _, tc := range []struct {
		name       string
		scheme     Scheme
		ranks, dom int
	}{
		{"xor nodes of 2", Scheme{Kind: XOR, K: 2, M: 1}, 8, 2},
		{"rs 2+2 singleton", Scheme{Kind: RS, K: 2, M: 2}, 8, 1},
		{"rs 3+2 singleton", Scheme{Kind: RS, K: 3, M: 2}, 12, 1},
		{"xor wide group", Scheme{Kind: XOR, K: 4, M: 1}, 16, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dm := domains(t, tc.ranks, tc.dom)
			h, err := NewHierarchy(Config{Scheme: tc.scheme, Domains: dm, Global: storage.NewMemStore(), Net: mpi.QsNet()})
			if err != nil {
				t.Fatal(err)
			}
			seen := make(map[int]int)
			for _, g := range h.Groups() {
				if len(g.Members) != tc.scheme.K || len(g.Partners) != tc.scheme.M {
					t.Fatalf("group %d geometry: %+v", g.ID, g)
				}
				used := make(map[int]bool)
				for _, r := range append(append([]int{}, g.Members...), g.Partners...) {
					d := dm.Of(r)
					if used[d] {
						t.Fatalf("group %d places two shards in domain %s", g.ID, dm.Name(d))
					}
					used[d] = true
				}
				for _, r := range g.Members {
					seen[r]++
				}
			}
			for r := 0; r < tc.ranks; r++ {
				if seen[r] != 1 {
					t.Fatalf("rank %d in %d groups", r, seen[r])
				}
				g, ok := h.GroupOf(r)
				if !ok {
					t.Fatalf("rank %d has no group", r)
				}
				found := false
				for _, m := range g.Members {
					if m == r {
						found = true
					}
				}
				if !found {
					t.Fatalf("GroupOf(%d) returned a group without it", r)
				}
			}
		})
	}
}

func TestPlacementInfeasible(t *testing.T) {
	mk := func(scheme Scheme, ranks, dom int) error {
		_, err := NewHierarchy(Config{Scheme: scheme, Domains: domains(t, ranks, dom), Global: storage.NewMemStore()})
		return err
	}
	if err := mk(Scheme{Kind: XOR, K: 3, M: 1}, 8, 2); err == nil {
		t.Error("indivisible rank count accepted")
	}
	if err := mk(Scheme{Kind: XOR, K: 2, M: 1}, 8, 8); err == nil {
		t.Error("single jumbo domain accepted")
	}
	// Two domains cannot host k+m = 3 distinct-domain shards.
	if err := mk(Scheme{Kind: XOR, K: 2, M: 1}, 8, 4); err == nil {
		t.Error("parity shard with no fresh domain accepted")
	}
	if _, err := NewHierarchy(Config{Scheme: Scheme{Kind: None}, Global: storage.NewMemStore()}); err == nil {
		t.Error("nil domain map accepted")
	}
	if _, err := NewHierarchy(Config{Scheme: Scheme{Kind: None}, Domains: domains(t, 4, 1)}); err == nil {
		t.Error("nil global store accepted")
	}
}

func TestSchemeNoneHasNoGroups(t *testing.T) {
	h, err := NewHierarchy(Config{Scheme: Scheme{Kind: None}, Domains: domains(t, 4, 1), Global: storage.NewMemStore()})
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Groups()) != 0 {
		t.Fatalf("groups = %v", h.Groups())
	}
	if _, ok := h.GroupOf(0); ok {
		t.Fatal("rank grouped under scheme none")
	}
	if rep, err := h.EncodeLine(0); err != nil || rep.Bytes != 0 {
		t.Fatalf("EncodeLine under none: %+v, %v", rep, err)
	}
}

func TestRankStoreWriteThrough(t *testing.T) {
	f := buildFixture(t, Config{
		Scheme:      Scheme{Kind: XOR, K: 2, M: 1},
		Domains:     domains(t, 4, 1),
		Global:      storage.NewMemStore(),
		GlobalEvery: 2,
	}, 5)
	for rank := 0; rank < 4; rank++ {
		for seq := uint64(0); seq < 5; seq++ {
			_, lerr := f.h.Local(rank).Get(ckpt.SegmentKey(rank, seq))
			if lerr != nil {
				t.Fatalf("L1 missing rank %d seq %d: %v", rank, seq, lerr)
			}
			_, gerr := f.h.Global().Get(ckpt.SegmentKey(rank, seq))
			if seq%2 == 0 && gerr != nil {
				t.Fatalf("L3 missing write-through rank %d seq %d: %v", rank, seq, gerr)
			}
			if seq%2 != 0 && gerr == nil {
				t.Fatalf("L3 holds off-cadence line rank %d seq %d", rank, seq)
			}
		}
	}
}

func TestEncodeLinePlacesVerifiableParity(t *testing.T) {
	f := buildFixture(t, Config{
		Scheme:  Scheme{Kind: XOR, K: 2, M: 1},
		Domains: domains(t, 4, 1),
		Global:  storage.NewMemStore(),
	}, 3)
	h := f.h
	for _, g := range h.Groups() {
		for seq := uint64(0); seq < 3; seq++ {
			raw, err := h.Local(g.Partners[0]).Get(ParityKey(g.ID, seq, 2))
			if err != nil {
				t.Fatalf("group %d seq %d parity missing: %v", g.ID, seq, err)
			}
			pf, err := ParseParityFrame(raw)
			if err != nil {
				t.Fatal(err)
			}
			if pf.Group != uint32(g.ID) || pf.Seq != seq || pf.Shard != 2 || pf.K != 2 || pf.M != 1 {
				t.Fatalf("frame header %+v", pf)
			}
			// The payload is the XOR of the (padded) member segments.
			want := make([]byte, len(pf.Payload))
			for i, r := range g.Members {
				seg, err := h.Local(r).Get(ckpt.SegmentKey(r, seq))
				if err != nil {
					t.Fatal(err)
				}
				if pf.Members[i].Rank != r || pf.Members[i].Length != uint32(len(seg)) || pf.Members[i].CRC != SegmentCRC(seg) {
					t.Fatalf("member ref %d = %+v", i, pf.Members[i])
				}
				for j, b := range seg {
					want[j] ^= b
				}
			}
			if !bytes.Equal(pf.Payload, want) {
				t.Fatalf("group %d seq %d parity payload wrong", g.ID, seq)
			}
		}
	}
	st := h.Stats()
	if st.Encodes != 3 || st.ExchangeBytes == 0 || st.ParityBytes == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEncodeLineMissingMember(t *testing.T) {
	f := buildFixture(t, Config{
		Scheme:  Scheme{Kind: XOR, K: 2, M: 1},
		Domains: domains(t, 4, 1),
		Global:  storage.NewMemStore(),
	}, 2)
	victim := f.h.Groups()[0].Members[0]
	if err := f.h.Local(victim).Delete(ckpt.SegmentKey(victim, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.h.EncodeLine(1); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("encode over missing member: %v", err)
	}
}

func TestExchangeTimeDirectSkipsBounceCopy(t *testing.T) {
	dm := domains(t, 4, 1)
	mk := func(direct bool) *Hierarchy {
		h, err := NewHierarchy(Config{
			Scheme: Scheme{Kind: XOR, K: 2, M: 1}, Domains: dm,
			Global: storage.NewMemStore(), Net: mpi.QsNet(), Direct: direct,
		})
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	segs := [][]byte{make([]byte, 1<<20), make([]byte, 1<<20)}
	bounce := mk(false).exchangeTime(segs, 1)
	direct := mk(true).exchangeTime(segs, 1)
	if direct >= bounce {
		t.Fatalf("direct %v not cheaper than bounce %v", direct, bounce)
	}
}

func TestWipeRankAndCorruptParity(t *testing.T) {
	f := buildFixture(t, Config{
		Scheme:  Scheme{Kind: XOR, K: 2, M: 1},
		Domains: domains(t, 4, 1),
		Global:  storage.NewMemStore(),
	}, 2)
	if err := f.h.WipeRank(0); err != nil {
		t.Fatal(err)
	}
	keys, err := f.h.Local(0).Keys()
	if err != nil || len(keys) != 0 {
		t.Fatalf("wiped rank still holds %v", keys)
	}
	rng := rand.New(rand.NewPCG(5, 5))
	key, ok := f.h.CorruptParity(1, rng)
	if !ok {
		t.Fatal("nothing to corrupt")
	}
	var gi, shard int
	var seq uint64
	if !ParseParityKey(key, &gi, &seq, &shard) || seq != 1 {
		t.Fatalf("corrupted key %q", key)
	}
	g := f.h.Groups()[gi]
	raw, err := f.h.Local(g.Partners[shard-2]).Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseParityFrame(raw); err == nil {
		t.Fatal("corrupt parity frame still parses")
	}
}

func TestParityKeyRoundTrip(t *testing.T) {
	key := ParityKey(3, 41, 5)
	var g, s int
	var q uint64
	if !ParseParityKey(key, &g, &q, &s) || g != 3 || q != 41 || s != 5 {
		t.Fatalf("round trip: %d %d %d", g, q, s)
	}
	for _, bad := range []string{"", "parity/g003", "segment/r000/seq000001", "parity/g3/seq41/s5", ckpt.SegmentKey(0, 1)} {
		if ParseParityKey(bad, nil, nil, nil) {
			t.Errorf("%q parsed as parity key", bad)
		}
	}
}

func TestFileHierarchyManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	dm, err := cluster.DomainMapFromGroups(4, map[string][]int{
		"rack0": {0, 1}, "rack1": {2}, "rack2": {3},
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewFileHierarchy(dir, Scheme{Kind: XOR, K: 2, M: 1}, dm, 2, mpi.QsNet())
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Local(0).Put(ckpt.SegmentKey(0, 7), []byte("seg")); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFileHierarchy(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Scheme() != h.Scheme() || got.Ranks() != 4 || got.cfg.GlobalEvery != 2 {
		t.Fatalf("reloaded: scheme %v ranks %d every %d", got.Scheme(), got.Ranks(), got.cfg.GlobalEvery)
	}
	if len(got.Groups()) != len(h.Groups()) {
		t.Fatalf("groups: %v vs %v", got.Groups(), h.Groups())
	}
	for i, g := range h.Groups() {
		rg := got.Groups()[i]
		if g.ID != rg.ID || !equalInts(g.Members, rg.Members) || !equalInts(g.Partners, rg.Partners) {
			t.Fatalf("group %d moved: %+v vs %+v", i, g, rg)
		}
	}
	if data, err := got.Local(0).Get(ckpt.SegmentKey(0, 7)); err != nil || string(data) != "seg" {
		t.Fatalf("reloaded L1: %q, %v", data, err)
	}
	if _, err := LoadFileHierarchy(t.TempDir()); err == nil {
		t.Fatal("empty dir loaded")
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// BenchmarkEncodeLineRS4x2 parity-protects one committed line of the
// multi-level benchmark's geometry: 12 ranks in domains of 2, RS 4+2,
// each rank's segment a 130-page (~0.5 MB) backed stencil strip.
func BenchmarkEncodeLineRS4x2(b *testing.B) {
	dm, err := cluster.NewDomainMap(12, 2)
	if err != nil {
		b.Fatal(err)
	}
	h, err := NewHierarchy(Config{
		Scheme: Scheme{Kind: RS, K: 4, M: 2}, Domains: dm,
		Global: storage.NewMemStore(), GlobalEvery: 8, Net: mpi.QsNet(),
	})
	if err != nil {
		b.Fatal(err)
	}
	var total int64
	for r := 0; r < h.Ranks(); r++ {
		seg := &ckpt.Segment{Rank: r, Kind: ckpt.Full, PageSize: 4096}
		for p := 0; p < 130; p++ {
			seg.Pages = append(seg.Pages, ckpt.PageRecord{Addr: uint64(p) * 4096, Data: bytes.Repeat([]byte{byte(r*7 + p)}, 4096)})
		}
		enc := seg.Encode()
		total += int64(len(enc))
		if err := h.RankStore(r).Put(ckpt.SegmentKey(r, 0), enc); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(total)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.EncodeLine(0); err != nil {
			b.Fatal(err)
		}
	}
}
