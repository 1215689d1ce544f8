package ckpt

import (
	"errors"
	"testing"

	"repro/internal/des"
	"repro/internal/storage"
)

// A multi-rank restore that hits a missing segment must name the rank
// and line, with the cause typed as storage.ErrNotFound.
func TestRestoreErrorMissingSegment(t *testing.T) {
	store := storage.NewMemStore()
	eng, co, _ := commitRig(t, 3, store)
	var commitErr error
	co.BeginTwoPhase(func(_ GlobalResult, e error) { commitErr = e })
	eng.Run(des.MaxTime)
	if commitErr != nil {
		t.Fatal(commitErr)
	}
	if err := store.Delete(SegmentKey(1, 0)); err != nil {
		t.Fatal(err)
	}
	_, err := RestoreAll(store, 3, 0)
	if err == nil {
		t.Fatal("restore of a torn line succeeded")
	}
	var re *RestoreError
	if !errors.As(err, &re) {
		t.Fatalf("restore failure not a *RestoreError: %v", err)
	}
	if re.Rank != 1 || re.Seq != 0 {
		t.Fatalf("RestoreError names rank %d seq %d, want 1/0", re.Rank, re.Seq)
	}
	if !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("missing segment not typed ErrNotFound: %v", err)
	}
	if errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("missing segment mis-typed as corrupt: %v", err)
	}
	checkOnePass(t, store, 3)
}

// A restore that hits a segment that is there but damaged must
// distinguish itself from a missing segment: same *RestoreError shape,
// cause typed storage.ErrCorrupt — whether the segment's bytes do not
// decode or it decodes but does not chain (a mid-chain segment of a
// foreign epoch, or a page size no address space has).
func TestRestoreErrorCorruptSegment(t *testing.T) {
	for _, tc := range []struct {
		name   string
		line   uint64                          // the line restored
		damage func(*testing.T, storage.Store) // damages one of rank 2's segments
	}{
		{"undecodable", 0, func(t *testing.T, store storage.Store) {
			if err := store.Put(SegmentKey(2, 0), []byte("not a segment")); err != nil {
				t.Fatal(err)
			}
		}},
		{"foreign epoch", 2, func(t *testing.T, store storage.Store) {
			craftSegment(t, store, 2, 1, func(s *Segment) { s.Epoch = 7 })
		}},
		{"page size not a power of two", 2, func(t *testing.T, store storage.Store) {
			craftSegment(t, store, 2, 2, func(s *Segment) { s.PageSize = 768 })
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := storage.NewMemStore()
			eng, co, _ := commitRig(t, 3, store)
			for line := 0; line < 3; line++ {
				var commitErr error
				co.BeginTwoPhase(func(_ GlobalResult, e error) { commitErr = e })
				eng.Run(des.MaxTime)
				if commitErr != nil {
					t.Fatal(commitErr)
				}
			}
			tc.damage(t, store)
			_, err := RestoreAll(store, 3, tc.line)
			var re *RestoreError
			if !errors.As(err, &re) {
				t.Fatalf("restore failure not a *RestoreError: %v", err)
			}
			if re.Rank != 2 || re.Seq != tc.line {
				t.Fatalf("RestoreError names rank %d seq %d, want 2/%d", re.Rank, re.Seq, tc.line)
			}
			if !errors.Is(err, storage.ErrCorrupt) {
				t.Fatalf("damaged segment not typed ErrCorrupt: %v", err)
			}
			if errors.Is(err, storage.ErrNotFound) {
				t.Fatalf("corrupt segment mis-typed as missing: %v", err)
			}
			checkOnePass(t, store, 3)
		})
	}
}

// The issue's edge case: a crash lands between two-phase prepare and
// commit. The prepared segments are already in the key space — a naive
// newest-consistent-line selector would trust the torn line — but no
// COMMIT marker was ever written, so the two-phase selector falls back
// one line.
func TestCrashBetweenPrepareAndCommitFallsBack(t *testing.T) {
	store := storage.NewMemStore()
	eng, co, spaces := commitRig(t, 3, store)

	// Line 0 fully commits.
	var err0 error
	co.BeginTwoPhase(func(_ GlobalResult, e error) { err0 = e })
	eng.Run(des.MaxTime)
	if err0 != nil {
		t.Fatal(err0)
	}

	// Line 1: prepare writes the segments immediately; the crash freezes
	// the world 500ms into the 2s commit window, before any ack — the
	// abort cleanup never runs, exactly as on a real node loss.
	dirtyAll(spaces, 9)
	eng.After(0, func() {
		co.BeginTwoPhase(func(GlobalResult, error) {
			t.Error("done callback ran after the crash instant")
		})
	})
	eng.Run(eng.Now() + 500*des.Millisecond)

	// The torn line's segments are all present and individually sound —
	// the segment key space claims seq 1 and even verifies.
	seq, ok, err := LatestConsistentSeq(store, 3)
	if err != nil || !ok || seq != 1 {
		t.Fatalf("segment key space claims %d/%v/%v, want 1/true", seq, ok, err)
	}
	if err := VerifyLine(store, 3, 1); err != nil {
		t.Fatalf("torn line's segments should verify individually: %v", err)
	}
	// But without a marker the two-phase trust rule rejects it, and
	// recovery restores the fallback line.
	if err := checkMarker(store, 3, 1); err == nil {
		t.Fatal("markerless line accepted as committed")
	}
	rec, ok, err := RestoreLatest(store, 3, true, nil)
	if err != nil || !ok || rec.Seq != 0 {
		t.Fatalf("fallback line = %d/%v/%v, want 0/true", rec.Seq, ok, err)
	}
	if plain, _ := checkOnePass(t, store, 3); plain.Seq != 1 {
		t.Fatalf("the plain rule restored line %d, want the torn line 1", plain.Seq)
	}
}

// The complementary tear: the marker survived but a rank's segment did
// not (storage loss after commit). The marker still checks out, but the
// line does not restore, and recovery falls back.
func TestTornCommittedLineFallsBack(t *testing.T) {
	store := storage.NewMemStore()
	eng, co, spaces := commitRig(t, 3, store)
	for i := 0; i < 2; i++ {
		var err error
		co.BeginTwoPhase(func(_ GlobalResult, e error) { err = e })
		eng.Run(des.MaxTime)
		if err != nil {
			t.Fatal(err)
		}
		dirtyAll(spaces, byte(10+i))
	}
	if err := store.Delete(SegmentKey(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := checkMarker(store, 3, 1); err != nil {
		t.Fatalf("the surviving marker: %v", err)
	}
	rec, ok, err := RestoreLatest(store, 3, true, nil)
	if err != nil || !ok || rec.Seq != 0 {
		t.Fatalf("fallback line = %d/%v/%v, want 0/true", rec.Seq, ok, err)
	}
	checkOnePass(t, store, 3)
}
