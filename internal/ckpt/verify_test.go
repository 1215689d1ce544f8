package ckpt

import (
	"bytes"
	"testing"

	"repro/internal/des"
	"repro/internal/mem"
	"repro/internal/storage"
)

// buildChains drives ranks checkpointers through n coordinated
// checkpoints (FullEvery controls epochs) over an integrity-enveloped
// store and returns the sealed store plus its raw backing store.
func buildChains(t *testing.T, ranks, n, fullEvery int) (storage.Store, *storage.MemStore) {
	t.Helper()
	eng := des.NewEngine()
	raw := storage.NewMemStore()
	store := storage.NewIntegrityStore(raw)
	var cps []*Checkpointer
	for i := 0; i < ranks; i++ {
		sp := mem.NewAddressSpace(mem.Config{PageSize: 512})
		r, _ := sp.Mmap(4 * 512)
		sp.Write(r.Start(), bytes.Repeat([]byte{byte(i + 1)}, 4*512))
		c, err := NewCheckpointer(eng, sp, Options{Rank: i, Store: store, FullEvery: fullEvery})
		if err != nil {
			t.Fatal(err)
		}
		c.Start()
		cps = append(cps, c)
		t.Cleanup(c.Stop)
	}
	co, err := NewCoordinator(eng, cps)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < n; k++ {
		if _, err := co.GlobalCheckpoint(); err != nil {
			t.Fatal(err)
		}
	}
	return store, raw
}

func TestVerifyChainAcceptsSoundChains(t *testing.T) {
	store, _ := buildChains(t, 2, 5, 3)
	for rank := 0; rank < 2; rank++ {
		for seq := uint64(0); seq < 5; seq++ {
			if err := VerifyChain(store, rank, seq); err != nil {
				t.Fatalf("sound chain rejected: rank %d seq %d: %v", rank, seq, err)
			}
		}
	}
	if err := VerifyLine(store, 2, 4); err != nil {
		t.Fatalf("sound line rejected: %v", err)
	}
}

func TestVerifyChainDetectsDamage(t *testing.T) {
	// Chains 0(F) 1 2, 3(F) 4 per rank.
	store, raw := buildChains(t, 1, 5, 3)

	// Missing target.
	if err := VerifyChain(store, 0, 9); err == nil {
		t.Fatal("missing target accepted")
	}
	// Corrupt the mid-chain delta at seq 1 — target 2 must fail, target
	// 4 (a different epoch) must still verify.
	good, _ := raw.Get(keyFor(0, 1))
	raw.Put(keyFor(0, 1), storage.FlipBit(good, 8*(len(good)-1)))
	if err := VerifyChain(store, 0, 2); err == nil {
		t.Fatal("chain over corrupt delta accepted")
	}
	if err := VerifyChain(store, 0, 4); err != nil {
		t.Fatalf("independent epoch rejected: %v", err)
	}
	raw.Put(keyFor(0, 1), good)

	// Delete the chain base — every target in that epoch must fail.
	baseFrame, _ := raw.Get(keyFor(0, 0))
	raw.Delete(keyFor(0, 0))
	for seq := uint64(0); seq <= 2; seq++ {
		if err := VerifyChain(store, 0, seq); err == nil {
			t.Fatalf("chain with missing base accepted at seq %d", seq)
		}
	}
	raw.Put(keyFor(0, 0), baseFrame)

	// A segment whose bytes decode but lie about their identity.
	wrong := &Segment{Rank: 0, Seq: 99, Kind: Full, PageSize: 512}
	store.Put(keyFor(0, 5), wrong.Encode())
	if err := VerifyChain(store, 0, 5); err == nil {
		t.Fatal("mislabeled segment accepted")
	}
}

func TestLatestVerifiableSeqSkipsDamagedLines(t *testing.T) {
	store, raw := buildChains(t, 2, 5, 3)

	// Pristine store: verifiable line == consistent line == 4.
	seq, ok, err := LatestVerifiableSeq(store, 2)
	if err != nil || !ok || seq != 4 {
		t.Fatalf("pristine: seq=%d ok=%v err=%v", seq, ok, err)
	}
	checkOnePass(t, store, 2)

	// Corrupt rank 1's newest segment: line 4 is out, 3 still proves.
	frame, _ := raw.Get(keyFor(1, 4))
	raw.Put(keyFor(1, 4), storage.FlipBit(frame, 8*(len(frame)/2)+4))
	if seq, ok, _ = LatestVerifiableSeq(store, 2); !ok || seq != 3 {
		t.Fatalf("after corrupting (1,4): seq=%d ok=%v, want 3", seq, ok)
	}
	checkOnePass(t, store, 2)
	// LatestConsistentSeq still blindly trusts the key space.
	if blind, ok, _ := LatestConsistentSeq(store, 2); !ok || blind != 4 {
		t.Fatalf("consistent-seq baseline moved: %d %v", blind, ok)
	}

	// Kill the second epoch's base (seq 3 for both ranks): lines 3 and 4
	// are gone, and the first epoch's top line 2 is next.
	raw.Delete(keyFor(0, 3))
	if seq, ok, _ = LatestVerifiableSeq(store, 2); !ok || seq != 2 {
		t.Fatalf("after losing a base: seq=%d ok=%v, want 2", seq, ok)
	}
	checkOnePass(t, store, 2)

	// Wreck everything: no line survives.
	for _, k := range mustKeys(t, raw) {
		d, _ := raw.Get(k)
		if len(d) > 0 {
			d = bytes.Clone(d)
			d[0] ^= 0xFF
			raw.Put(k, d)
		}
	}
	if _, ok, err = LatestVerifiableSeq(store, 2); err != nil || ok {
		t.Fatalf("fully corrupt store: ok=%v err=%v, want no line", ok, err)
	}
	checkOnePass(t, store, 2)
	// Zero or negative ranks: no line, no panic.
	if _, ok, _ := LatestVerifiableSeq(store, 0); ok {
		t.Fatal("zero ranks reported a line")
	}
}

func mustKeys(t *testing.T, s storage.Store) []string {
	t.Helper()
	keys, err := s.Keys()
	if err != nil {
		t.Fatal(err)
	}
	return keys
}

// TestVerifiedRestoreEquality: restoring from the line LatestVerifiableSeq
// picks after damage yields exactly the state that line captured.
func TestVerifiedRestoreEquality(t *testing.T) {
	eng := des.NewEngine()
	raw := storage.NewMemStore()
	store := storage.NewIntegrityStore(raw)
	sp := mem.NewAddressSpace(mem.Config{PageSize: 512})
	r, _ := sp.Mmap(4 * 512)
	c, _ := NewCheckpointer(eng, sp, Options{Store: store})
	c.Start()
	var wantAt1 []byte
	for seq := 0; seq < 3; seq++ {
		sp.Write(r.Start()+uint64(seq)*512, bytes.Repeat([]byte{byte(0xA0 + seq)}, 512))
		if _, err := c.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if seq == 1 {
			wantAt1 = make([]byte, 4*512)
			sp.Read(r.Start(), wantAt1)
		}
	}
	// Newest segment rots at rest.
	frame, _ := raw.Get(keyFor(0, 2))
	raw.Put(keyFor(0, 2), storage.FlipBit(frame, 8*20+2))

	seq, ok, err := LatestVerifiableSeq(store, 1)
	if err != nil || !ok || seq != 1 {
		t.Fatalf("line: seq=%d ok=%v err=%v", seq, ok, err)
	}
	fresh, _, err := replayChain(store, 0, seq, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4*512)
	if err := fresh.Read(r.Start(), got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantAt1) {
		t.Fatal("verified-line restore is not bit-exact")
	}
}

// VerifyChain approves exactly the region tables a restore maps as
// written: a one-segment full chain per table, verified, then restored.
func TestRegionTableVerifiesAsRestores(t *testing.T) {
	const ps = 4096
	const base = 0x2000_0000_0000
	cases := []struct {
		name    string
		regions []RegionInfo
		ok      bool
	}{
		{"data and arena", []RegionInfo{{base, 2 * ps, mem.Mmap}, {0x4000_0000_0000, ps, mem.Data}}, true},
		{"heap kind", []RegionInfo{{0x6000_0000_0000, 2 * ps, mem.Heap}}, true},
		{"unaligned start", []RegionInfo{{base + 0x100, ps, mem.Mmap}}, false},
		{"empty", []RegionInfo{{base, 0, mem.Mmap}}, false},
		{"overlapping", []RegionInfo{{base, 2 * ps, mem.Mmap}, {base + ps, ps, mem.Mmap}}, false},
		{"wrapping", []RegionInfo{{^uint64(0) &^ (ps - 1), 2 * ps, mem.Mmap}}, false},
		{"unknown kind", []RegionInfo{{base, ps, mem.Kind(200)}}, false},
		{"stack kind", []RegionInfo{{base, ps, mem.Stack}}, false},
		{"below the stack", []RegionInfo{{mem.StackTop - mem.StackSize - 2*ps, 2 * ps, mem.Mmap}}, true},
		{"over the stack's base", []RegionInfo{{mem.StackTop - mem.StackSize - ps, 2 * ps, mem.Mmap}}, false},
		{"inside the stack", []RegionInfo{{mem.StackTop - ps, ps, mem.Data}}, false},
		{"above the stack", []RegionInfo{{mem.StackTop, ps, mem.Mmap}}, true},
	}
	for _, c := range cases {
		seg := &Segment{Kind: Full, PageSize: ps, Regions: c.regions}
		if c.regions[0].Size != 0 {
			seg.Pages = []PageRecord{{Addr: c.regions[0].Start, Data: bytes.Repeat([]byte{7}, ps)}}
		}
		store := storage.NewMemStore()
		if err := store.Put(SegmentKey(0, 0), seg.Encode()); err != nil {
			t.Fatal(err)
		}
		verr := VerifyChain(store, 0, 0)
		space, _, rerr := replayChain(store, 0, 0, nil)
		if (verr == nil) != c.ok || (rerr == nil) != c.ok {
			t.Errorf("%s: VerifyChain = %v, replayChain = %v; want both to succeed = %v", c.name, verr, rerr, c.ok)
			continue
		}
		if c.ok {
			got := make([]byte, ps)
			if err := space.Read(c.regions[0].Start, got); err != nil || got[0] != 7 {
				t.Errorf("%s: restored page reads %d (%v)", c.name, got[0], err)
			}
		}
	}
}
