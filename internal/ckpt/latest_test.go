package ckpt

import (
	"slices"
	"testing"

	"repro/internal/des"
	"repro/internal/storage"
)

// committedOracle is the two-phase selection as separate passes make it:
// COMMIT marker keys newest first, the first whose marker reads back,
// decodes and names its line and the rank count, and whose every chain
// VerifyLine proves.
func committedOracle(store storage.Store, ranks int) (uint64, bool) {
	keys, err := store.Keys()
	if err != nil || ranks <= 0 {
		return 0, false
	}
	var lines []uint64
	for _, k := range keys {
		var s uint64
		if ParseCommitKey(k, &s) {
			lines = append(lines, s)
		}
	}
	slices.Sort(lines)
	for i := len(lines) - 1; i >= 0; i-- {
		s := lines[i]
		data, err := store.Get(CommitKey(s))
		if err != nil {
			continue
		}
		m, err := DecodeCommitMarker(data)
		if err != nil || m.Seq != s || m.Ranks != ranks {
			continue
		}
		if VerifyLine(store, ranks, s) == nil {
			return s, true
		}
	}
	return 0, false
}

// checkOnePass asserts that RestoreLatest, under either trust rule,
// picks the line the separate passes pick (LatestVerifiableSeq, or
// committedOracle under two-phase commit), that its bytes are the line's
// Σ ChainVolume, and that every space it restored digests as RestoreAll's
// does. It returns the two picks, plain rule first (ok false: no line).
func checkOnePass(t testing.TB, store storage.Store, ranks int) (plain, committed Recovered) {
	t.Helper()
	for _, rule := range []bool{false, true} {
		rec, ok, err := RestoreLatest(store, ranks, rule, nil)
		if err != nil {
			t.Fatalf("RestoreLatest(committed=%v): %v", rule, err)
		}
		var want uint64
		var wantOK bool
		if rule {
			want, wantOK = committedOracle(store, ranks)
		} else if want, wantOK, err = LatestVerifiableSeq(store, ranks); err != nil {
			t.Fatal(err)
		}
		if ok != wantOK || ok && rec.Seq != want {
			t.Fatalf("committed=%v: RestoreLatest picked %d/%v, the separate passes %d/%v", rule, rec.Seq, ok, want, wantOK)
		}
		if !ok {
			if rec.Spaces != nil || rec.Bytes != 0 {
				t.Fatalf("committed=%v: no line, but %d spaces and %d bytes", rule, len(rec.Spaces), rec.Bytes)
			}
			continue
		}
		var volume uint64
		for r := 0; r < ranks; r++ {
			v, err := ChainVolume(store, r, rec.Seq)
			if err != nil {
				t.Fatal(err)
			}
			volume += v
		}
		if rec.Bytes != volume {
			t.Fatalf("committed=%v: line %d read %d bytes, Σ ChainVolume = %d", rule, rec.Seq, rec.Bytes, volume)
		}
		spaces, err := RestoreAll(store, ranks, rec.Seq)
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.Spaces) != ranks {
			t.Fatalf("committed=%v: %d spaces for %d ranks", rule, len(rec.Spaces), ranks)
		}
		for r, sp := range spaces {
			if got, want := rec.Spaces[r].Digest(nil), sp.Digest(nil); got != want {
				t.Fatalf("committed=%v: rank %d digest %#x, RestoreAll's %#x", rule, r, got, want)
			}
		}
		if rule {
			committed = rec
		} else {
			plain = rec
		}
	}
	return plain, committed
}

// Under both trust rules the one pass keeps what the two-phase selection
// checked: over three committed lines of three ranks, each damage to
// line 2 makes recovery fall back to line 1 under two-phase commit, and
// only damage to the segments themselves moves the plain rule.
func TestRestoreLatestTrustRules(t *testing.T) {
	for _, tc := range []struct {
		name             string
		damage           func(*testing.T, storage.Store)
		plain, committed uint64
	}{
		{"pristine", func(*testing.T, storage.Store) {}, 2, 2},
		{"corrupt marker", func(t *testing.T, s storage.Store) { put(t, s, CommitKey(2), []byte("garbage")) }, 2, 1},
		{"missing marker", func(t *testing.T, s storage.Store) { del(t, s, CommitKey(2)) }, 2, 1},
		{"marker labeled another line", func(t *testing.T, s storage.Store) {
			put(t, s, CommitKey(2), EncodeCommitMarker(CommitMarker{Seq: 1, Ranks: 3}))
		}, 2, 1},
		{"marker with the wrong rank count", func(t *testing.T, s storage.Store) {
			put(t, s, CommitKey(2), EncodeCommitMarker(CommitMarker{Seq: 2, Ranks: 2}))
		}, 2, 1},
		{"a rank missing the seq", func(t *testing.T, s storage.Store) { del(t, s, SegmentKey(1, 2)) }, 1, 1},
		{"undecodable segment", func(t *testing.T, s storage.Store) { put(t, s, SegmentKey(2, 2), []byte("not a segment")) }, 1, 1},
		{"mid-chain foreign epoch", func(t *testing.T, s storage.Store) {
			craftSegment(t, s, 2, 1, func(seg *Segment) { seg.Epoch = 7 })
		}, 0, 0},
		{"marker of a line no rank wrote", func(t *testing.T, s storage.Store) {
			put(t, s, CommitKey(5), EncodeCommitMarker(CommitMarker{Seq: 5, Ranks: 3}))
		}, 2, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := storage.NewMemStore()
			eng, co, spaces := commitRig(t, 3, store)
			for line := 0; line < 3; line++ {
				var err error
				co.BeginTwoPhase(func(_ GlobalResult, e error) { err = e })
				eng.Run(des.MaxTime)
				if err != nil {
					t.Fatal(err)
				}
				dirtyAll(spaces, byte(20+line))
			}
			tc.damage(t, store)
			plain, committed := checkOnePass(t, store, 3)
			if plain.Seq != tc.plain || committed.Seq != tc.committed {
				t.Fatalf("picked %d (plain) and %d (committed), want %d and %d", plain.Seq, committed.Seq, tc.plain, tc.committed)
			}
		})
	}
}

func put(t *testing.T, s storage.Store, key string, data []byte) {
	t.Helper()
	if err := s.Put(key, data); err != nil {
		t.Fatal(err)
	}
}

func del(t *testing.T, s storage.Store, key string) {
	t.Helper()
	if err := s.Delete(key); err != nil {
		t.Fatal(err)
	}
}

// A store whose key listing fails is the one pass's only error, under
// either rule; with no ranks there is no line and no error.
func TestRestoreLatestErrors(t *testing.T) {
	down := &dyingStore{Store: storage.NewMemStore()}
	for _, rule := range []bool{false, true} {
		if _, ok, err := RestoreLatest(down, 2, rule, nil); err == nil || ok {
			t.Fatalf("committed=%v: a failed key listing gave ok=%v err=%v", rule, ok, err)
		}
		if _, ok, err := RestoreLatest(storage.NewMemStore(), 0, rule, nil); err != nil || ok {
			t.Fatalf("committed=%v: zero ranks gave ok=%v err=%v", rule, ok, err)
		}
	}
}
