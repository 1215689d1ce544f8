package ckpt

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/des"
	"repro/internal/mem"
	"repro/internal/storage"
)

// commitRig builds n ranks of 2 dirty pages each over one shared store
// with a 1-page-per-second sink, so prepare acks land at predictable
// virtual times.
func commitRig(t *testing.T, n int, store storage.Store) (*des.Engine, *Coordinator, []*mem.AddressSpace) {
	t.Helper()
	eng := des.NewEngine()
	sink := storage.Model{Name: "s", Bandwidth: float64(pageSize)}
	var cps []*Checkpointer
	var spaces []*mem.AddressSpace
	for i := 0; i < n; i++ {
		sp := mem.NewAddressSpace(mem.Config{PageSize: pageSize})
		r, _ := sp.Mmap(2 * pageSize)
		sp.Write(r.Start(), bytes.Repeat([]byte{byte(i + 1)}, 2*pageSize))
		c, err := NewCheckpointer(eng, sp, Options{Rank: i, Store: store, Sink: sink})
		if err != nil {
			t.Fatal(err)
		}
		c.Start()
		cps = append(cps, c)
		spaces = append(spaces, sp)
	}
	co, err := NewCoordinator(eng, cps)
	if err != nil {
		t.Fatal(err)
	}
	return eng, co, spaces
}

// dirtyAll rewrites both pages of every rank so the next checkpoint has
// a full-size commit window again.
func dirtyAll(spaces []*mem.AddressSpace, val byte) {
	for _, sp := range spaces {
		for _, r := range sp.Regions() {
			if r.Kind().Checkpointable() {
				sp.Write(r.Start(), bytes.Repeat([]byte{val}, 2*pageSize))
			}
		}
	}
}

func TestCommitMarkerRoundTrip(t *testing.T) {
	m := CommitMarker{Seq: 42, Ranks: 7, At: 3 * des.Second}
	got, err := DecodeCommitMarker(EncodeCommitMarker(m))
	if err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Fatalf("round trip = %+v, want %+v", got, m)
	}
	var seq uint64
	if !ParseCommitKey(CommitKey(42), &seq) || seq != 42 {
		t.Fatalf("ParseCommitKey(%q) failed", CommitKey(42))
	}
	if ParseCommitKey("rank000/seg000001", &seq) {
		t.Fatal("segment key parsed as commit key")
	}
}

// TestParseCommitKeyIsCanonical: a key CommitKey never prints names no
// line. LatestCommittedSeq fetches CommitKey(seq), so a parser that read
// "commit/seq42" as line 42 would let the two-phase claim count a marker
// recovery then cannot find.
func TestParseCommitKeyIsCanonical(t *testing.T) {
	for _, key := range []string{"commit/seq42", "commit/seq0000042", "commit/seq+00042", "commit/seq000042/", "commit/seq"} {
		var seq uint64
		if ParseCommitKey(key, &seq) {
			t.Errorf("ParseCommitKey(%q) accepted line %d; CommitKey(%d) = %q", key, seq, seq, CommitKey(seq))
		}
	}
	if !ParseCommitKey(CommitKey(1234567), nil) || ParseCommitKey("commit/seq42", nil) {
		t.Fatal("ParseCommitKey with a nil seq must still report the match")
	}
}

func TestDecodeCommitMarkerCorrupt(t *testing.T) {
	valid := EncodeCommitMarker(CommitMarker{Seq: 1, Ranks: 2, At: 1})
	for name, data := range map[string][]byte{
		"empty":     nil,
		"short":     valid[:10],
		"long":      append(append([]byte(nil), valid...), 0),
		"bad magic": append([]byte("XXXX"), valid[4:]...),
		"bad ver":   append(append([]byte(nil), valid[:4]...), append([]byte{99}, valid[5:]...)...),
	} {
		if _, err := DecodeCommitMarker(data); err == nil {
			t.Fatalf("%s marker accepted", name)
		}
	}
}

// The happy path: prepare, per-rank acks, COMMIT marker, done at the
// commit's virtual completion time.
func TestTwoPhaseCommitCompletes(t *testing.T) {
	store := storage.NewMemStore()
	eng, co, _ := commitRig(t, 3, store)
	var g GlobalResult
	var doneAt des.Time
	var doneErr error
	done := false
	co.BeginTwoPhase(func(res GlobalResult, err error) {
		g, doneErr, doneAt, done = res, err, eng.Now(), true
	})
	eng.Run(des.MaxTime)
	if !done || doneErr != nil {
		t.Fatalf("commit: done=%v err=%v", done, doneErr)
	}
	// 2 pages at 1 page/s per rank, parallel sinks, plus one QsNet round
	// trip (2 × 2µs): last ack at 2s+4µs.
	if want := 2*des.Second + 4*des.Microsecond; doneAt != want {
		t.Fatalf("committed at %v, want %v", doneAt, want)
	}
	if g.Seq != 0 || len(g.PerRank) != 3 {
		t.Fatalf("result = %+v", g)
	}
	seq, ok, err := LatestCommittedSeq(store, 3)
	if err != nil || !ok || seq != 0 {
		t.Fatalf("LatestCommittedSeq = %d/%v/%v", seq, ok, err)
	}
	if err := VerifyCommittedLine(store, 3, 0); err != nil {
		t.Fatal(err)
	}
	if _, pending := co.PendingSeq(); pending {
		t.Fatal("round still pending after commit")
	}
	if len(co.Results()) != 1 {
		t.Fatalf("results = %d", len(co.Results()))
	}
}

// An abort between prepare and commit deletes the prepared segments and
// never writes a marker — recovery cannot trust the line.
func TestAbortBetweenPrepareAndCommit(t *testing.T) {
	store := storage.NewMemStore()
	eng, co, spaces := commitRig(t, 3, store)

	// First, a line that fully commits.
	var firstErr error
	co.BeginTwoPhase(func(_ GlobalResult, err error) { firstErr = err })
	eng.Run(des.MaxTime)
	if firstErr != nil {
		t.Fatal(firstErr)
	}

	// Second line: re-dirty every page so the commit window is 2s again,
	// then kill a rank 500ms into it.
	dirtyAll(spaces, 9)
	var abortErr error
	aborted := false
	eng.After(0, func() {
		co.BeginTwoPhase(func(_ GlobalResult, err error) { abortErr, aborted = err, true })
	})
	eng.After(500*des.Millisecond, func() {
		if !co.AbortPending(errors.New("rank 1 died")) {
			t.Fatal("nothing pending to abort")
		}
	})
	eng.Run(des.MaxTime)

	if !aborted || !errors.Is(abortErr, ErrCommitAborted) {
		t.Fatalf("abort: done=%v err=%v", aborted, abortErr)
	}
	// The aborted line left nothing: no marker, no segments.
	keys, _ := store.Keys()
	for _, k := range keys {
		if strings.Contains(k, "seg000001") || k == CommitKey(1) {
			t.Fatalf("aborted line left key %q", k)
		}
	}
	// Recovery falls back to the previous committed line.
	seq, ok, err := LatestCommittedSeq(store, 3)
	if err != nil || !ok || seq != 0 {
		t.Fatalf("fallback line = %d/%v/%v, want 0/true", seq, ok, err)
	}
	if err := VerifyCommittedLine(store, 3, 1); err == nil {
		t.Fatal("aborted line verified as committed")
	}
}

// A prepare-phase storage refusal surfaces the storage error itself,
// not ErrCommitAborted — the caller distinguishes refused from
// rolled-back.
func TestPrepareRefusalIsNotAbort(t *testing.T) {
	faulty := storage.NewFaultyStore(storage.NewMemStore(), storage.FaultConfig{
		Seed: 1, OutageAfterOps: 1,
	})
	_, co, _ := commitRig(t, 2, faulty)
	var err error
	co.BeginTwoPhase(func(_ GlobalResult, e error) { err = e })
	if err == nil {
		t.Fatal("outage store accepted prepare")
	}
	if errors.Is(err, ErrCommitAborted) {
		t.Fatalf("prepare refusal reported as abort: %v", err)
	}
	if !errors.Is(err, storage.ErrUnavailable) {
		t.Fatalf("refusal not typed: %v", err)
	}
	if _, pending := co.PendingSeq(); pending {
		t.Fatal("refused prepare left a pending round")
	}
}

// A refused marker write aborts: damaged markers are skipped, committed
// lines only.
func TestDamagedMarkerSkipped(t *testing.T) {
	store := storage.NewMemStore()
	eng, co, spaces := commitRig(t, 2, store)
	for i := 0; i < 2; i++ {
		var err error
		co.BeginTwoPhase(func(_ GlobalResult, e error) { err = e })
		eng.Run(des.MaxTime)
		if err != nil {
			t.Fatal(err)
		}
		dirtyAll(spaces, byte(10+i))
	}
	// Corrupt the newest line's marker: recovery falls back to line 0.
	if err := store.Put(CommitKey(1), []byte("garbage")); err != nil {
		t.Fatal(err)
	}
	seq, ok, err := LatestCommittedSeq(store, 2)
	if err != nil || !ok || seq != 0 {
		t.Fatalf("with damaged marker: %d/%v/%v, want 0/true", seq, ok, err)
	}
	// Delete it entirely: same answer.
	if err := store.Delete(CommitKey(1)); err != nil {
		t.Fatal(err)
	}
	seq, ok, _ = LatestCommittedSeq(store, 2)
	if !ok || seq != 0 {
		t.Fatalf("with missing marker: %d/%v, want 0/true", seq, ok)
	}
}
