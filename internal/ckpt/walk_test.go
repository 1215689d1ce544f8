package ckpt

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/mem"
	"repro/internal/storage"
)

// craftSegment decodes rank's segment seq from store, lets edit change
// it and puts it back re-encoded, so the stored bytes are a valid
// segment that lies.
func craftSegment(t *testing.T, store storage.Store, rank int, seq uint64, edit func(*Segment)) {
	t.Helper()
	seg, _, err := loadSegment(store, rank, seq, new(Segment))
	if err != nil {
		t.Fatal(err)
	}
	edit(seg)
	if err := store.Put(SegmentKey(rank, seq), seg.Encode()); err != nil {
		t.Fatal(err)
	}
}

// A restore (replayChain) is the chain walk VerifyChain is, so on a
// chain 0(F) 1 2 with one lying segment it returns VerifyChain's error,
// typed storage.ErrCorrupt, where it used to panic, replay the foreign
// page or map a region of terabytes; and a page record aimed at the
// stack, which every space maps from creation, is skipped like a page of
// an unmapped region.
func TestRestoreErrorAgreesWithVerifyChain(t *testing.T) {
	const ps = 512
	// foreign replaces s's pages with one n-byte page of 0xee at addr, or
	// at the start of s's first region when addr is 0.
	foreign := func(s *Segment, n int, addr uint64) {
		if addr == 0 {
			addr = s.Regions[0].Start
		}
		s.Pages = []PageRecord{{Addr: addr, Data: bytes.Repeat([]byte{0xee}, n)}}
	}
	for _, tc := range []struct {
		name string
		seq  uint64
		edit func(*Segment)
	}{
		{"mid-chain page size", 1, func(s *Segment) { s.PageSize = 2 * ps; foreign(s, 2*ps, 0) }},
		{"mid-chain foreign epoch", 1, func(s *Segment) { s.Epoch = 7; foreign(s, ps, 0) }},
		{"target epoch after the target", 2, func(s *Segment) { s.Epoch = 7 }},
		{"mid-chain rank label", 1, func(s *Segment) { s.Rank = 1 }},
		{"mid-chain seq label", 1, func(s *Segment) { s.Seq = 5 }},
		{"mid-chain full kind", 1, func(s *Segment) { s.Kind = Full }},
		{"target region of terabytes", 2, func(s *Segment) { s.Regions[len(s.Regions)-1].Size = 1 << 40 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store, _ := buildChains(t, 1, 3, 3)
			craftSegment(t, store, 0, tc.seq, tc.edit)
			verr := VerifyChain(store, 0, 2)
			if verr == nil {
				t.Fatal("VerifyChain accepted the lying segment")
			}
			_, _, rerr := replayChain(store, 0, 2, nil)
			if rerr == nil || rerr.Error() != verr.Error() {
				t.Fatalf("replayChain = %v, want VerifyChain's %v", rerr, verr)
			}
			if !errors.Is(rerr, storage.ErrCorrupt) {
				t.Fatalf("a segment that decodes but does not chain is not typed storage.ErrCorrupt: %v", rerr)
			}
			checkOnePass(t, store, 1)
		})
	}
	t.Run("page at the stack", func(t *testing.T) {
		store, _ := buildChains(t, 1, 3, 3)
		stack := mem.StackTop - mem.StackSize
		craftSegment(t, store, 0, 1, func(s *Segment) { foreign(s, ps, stack) })
		if err := VerifyChain(store, 0, 2); err != nil {
			t.Fatal(err)
		}
		space, _, err := replayChain(store, 0, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, ps)
		if err := space.Read(stack, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, make([]byte, ps)) {
			t.Fatalf("replayChain wrote into the stack: % x…", got[:8])
		}
	})
}

// getLog is a store that records the key of every Get.
type getLog struct {
	storage.Store
	keys []string
}

func (s *getLog) Get(key string) ([]byte, error) {
	s.keys = append(s.keys, key)
	return s.Store.Get(key)
}

// A storage-decay line draws one fault per operation, so the Gets each
// chain reader issues, in order, are part of every faulted run's output.
// Over two ranks' chains 0(F) 1 2 this pins them: a change that moves
// one moves golden cells, and has to edit this test on purpose. Every reader
// fetches each chain segment once: the target, then base … target-1.
// RestoreLatest over a store whose newest line is torn at rank 1 reads
// rank 0's chain, rank 1's failing prefix, then the older line's chains.
func TestChainReadersGetSequence(t *testing.T) {
	inner, _ := buildChains(t, 2, 3, 3)
	torn, raw := buildChains(t, 2, 3, 3)
	if err := raw.Put(SegmentKey(1, 2), []byte("torn")); err != nil {
		t.Fatal(err)
	}
	k := SegmentKey
	for _, tc := range []struct {
		name  string
		store storage.Store
		read  func(storage.Store) error
		want  []string
	}{
		{"VerifyChain", inner, func(s storage.Store) error { return VerifyChain(s, 1, 2) },
			[]string{k(1, 2), k(1, 0), k(1, 1)}},
		{"ChainVolume", inner, func(s storage.Store) error { _, err := ChainVolume(s, 1, 2); return err },
			[]string{k(1, 2), k(1, 0), k(1, 1)}},
		{"RestoreAll", inner, func(s storage.Store) error { _, err := RestoreAll(s, 2, 2); return err },
			[]string{k(0, 2), k(0, 0), k(0, 1), k(1, 2), k(1, 0), k(1, 1)}},
		{"RestoreLatest torn at rank 1", torn, func(s storage.Store) error {
			rec, ok, err := RestoreLatest(s, 2, false, nil)
			if err == nil && (!ok || rec.Seq != 1) {
				err = fmt.Errorf("restored line %d/%v, want 1", rec.Seq, ok)
			}
			return err
		}, []string{k(0, 2), k(0, 0), k(0, 1), k(1, 2), k(0, 1), k(0, 0), k(1, 1), k(1, 0)}},
	} {
		log := &getLog{Store: tc.store}
		if err := tc.read(log); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !slices.Equal(log.keys, tc.want) {
			t.Errorf("%s Gets %q, want %q", tc.name, log.keys, tc.want)
		}
	}
}
