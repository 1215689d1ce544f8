package storage

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/des"
)

func TestSealOpenRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xAB}, 4096)} {
		got, err := Open(Seal(payload))
		if err != nil {
			t.Fatalf("Open(Seal(%d bytes)): %v", len(payload), err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("round trip lost data: %d bytes in, %d out", len(payload), len(got))
		}
	}
}

func TestOpenDetectsDamage(t *testing.T) {
	payload := []byte("precious checkpoint bytes")
	frame := Seal(payload)
	if !bytes.Equal(frame[:len(payload)], payload) {
		t.Fatal("the envelope does not trail the payload")
	}
	// inTrailer returns frame with b written at offset off of its trailer.
	inTrailer := func(off int, b ...byte) []byte {
		f := bytes.Clone(frame)
		copy(f[len(payload)+off:], b)
		return f
	}
	cases := map[string][]byte{
		"truncated trailer": frame[:10],
		"torn payload":      frame[:len(frame)-3],
		"bad magic":         inTrailer(0, 'X', 'X', 'X', 'X'),
		"version 1":         inTrailer(4, 1),
		"length off by one": inTrailer(8, byte(len(payload)+1)),
	}
	flipped := append([]byte(nil), frame...)
	flipped[len(flipped)-1] ^= 0x01
	cases["bit flip"] = flipped
	cases["payload bit flip"] = FlipBit(frame, 3)
	for name, f := range cases {
		if _, err := Open(f); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

// TestOpenClipsPayload: the payload Open returns cannot be appended into
// the trailer that follows it.
func TestOpenClipsPayload(t *testing.T) {
	frame := Seal([]byte("payload"))
	got, err := Open(frame)
	if err != nil || cap(got) != len(got) {
		t.Fatalf("Open lent cap %d for len %d (err %v)", cap(got), len(got), err)
	}
}

func TestIntegrityStoreDetectsTornAndFlippedWrites(t *testing.T) {
	inner := NewMemStore()
	s := NewIntegrityStore(inner)
	if err := s.Put("k", []byte("hello world")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("k")
	if err != nil || string(got) != "hello world" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	// Tear the frame behind the store's back.
	frame, _ := inner.Get("k")
	inner.Put("k", frame[:len(frame)-4])
	if _, err := s.Get("k"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn read err = %v, want ErrCorrupt", err)
	}
	// Flip one payload bit.
	inner.Put("k", FlipBit(frame, 8*len(frame)-1))
	if _, err := s.Get("k"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped read err = %v, want ErrCorrupt", err)
	}
	if s.CorruptReads() != 2 {
		t.Fatalf("CorruptReads = %d, want 2", s.CorruptReads())
	}
	// Missing keys still classify as not-found, not corrupt.
	if _, err := s.Get("absent"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing key err = %v, want ErrNotFound", err)
	}
}

func TestFaultyStoreDeterminism(t *testing.T) {
	run := func() ([]string, FaultStats) {
		s := NewFaultyStore(NewMemStore(), FaultConfig{
			Seed: 42, TransientRate: 0.2, TornWriteRate: 0.1, CorruptRate: 0.1,
		})
		var log []string
		for i := 0; i < 200; i++ {
			key := "k" + string(rune('a'+i%7))
			if err := s.Put(key, bytes.Repeat([]byte{byte(i)}, 64)); err != nil {
				log = append(log, "put:"+err.Error())
			}
			if d, err := s.Get(key); err != nil {
				log = append(log, "get:"+err.Error())
			} else {
				log = append(log, string(d[:1]))
			}
		}
		return log, s.Stats()
	}
	log1, st1 := run()
	log2, st2 := run()
	if st1 != st2 {
		t.Fatalf("stats diverge across identical runs: %+v vs %+v", st1, st2)
	}
	for i := range log1 {
		if log1[i] != log2[i] {
			t.Fatalf("op %d diverges: %q vs %q", i, log1[i], log2[i])
		}
	}
	if st1.Transients == 0 || st1.TornWrites == 0 || st1.BitFlips == 0 {
		t.Fatalf("fault injector injected nothing: %+v", st1)
	}
}

func TestFaultyStoreOutage(t *testing.T) {
	s := NewFaultyStore(NewMemStore(), FaultConfig{OutageAfterOps: 3})
	for i := 0; i < 3; i++ {
		if err := s.Put("k", []byte("x")); err != nil {
			t.Fatalf("op %d before outage: %v", i, err)
		}
	}
	if err := s.Put("k", []byte("x")); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("post-outage Put err = %v, want ErrUnavailable", err)
	}
	if _, err := s.Get("k"); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("post-outage Get err = %v, want ErrUnavailable", err)
	}
	if !s.Down() {
		t.Fatal("store not marked down")
	}
	s2 := NewFaultyStore(NewMemStore(), FaultConfig{})
	s2.Kill()
	if _, err := s2.Keys(); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("killed Keys err = %v, want ErrUnavailable", err)
	}
}

func TestFaultyStoreTornWriteCaughtByEnvelope(t *testing.T) {
	// Integrity inside faulty order: seal, then tear. The envelope must
	// catch every torn write on read-back.
	faulty := NewFaultyStore(NewMemStore(), FaultConfig{Seed: 9, TornWriteRate: 1})
	s := NewIntegrityStore(faulty)
	if err := s.Put("k", []byte("will be torn")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("k"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn write read back as %v, want ErrCorrupt", err)
	}
}

// flakyStore fails the first n calls of each op with a transient error.
type flakyStore struct {
	Store
	failsLeft int
}

func (f *flakyStore) Put(key string, data []byte) error {
	if f.failsLeft > 0 {
		f.failsLeft--
		return ErrTransient
	}
	return f.Store.Put(key, data)
}

func TestResilientStoreRetriesTransients(t *testing.T) {
	inner := &flakyStore{Store: NewMemStore(), failsLeft: 3}
	s := NewResilientStore(inner, RetryPolicy{MaxAttempts: 5, BaseDelay: 1, MaxDelay: 8, Seed: 1})
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatalf("Put through 3 transients: %v", err)
	}
	st := s.Stats()
	if st.Retries != 3 {
		t.Fatalf("Retries = %d, want 3", st.Retries)
	}
	got, err := s.Get("k")
	if err != nil || string(got) != "v" {
		t.Fatalf("Get = %q, %v", got, err)
	}
}

func TestResilientStoreBudgetAndClassification(t *testing.T) {
	inner := &flakyStore{Store: NewMemStore(), failsLeft: 100}
	s := NewResilientStore(inner, RetryPolicy{MaxAttempts: 4, BaseDelay: 1, MaxDelay: 4, Seed: 2})
	err := s.Put("k", []byte("v"))
	if !IsTransient(err) {
		t.Fatalf("exhausted error lost its transient class: %v", err)
	}
	if st := s.Stats(); st.Exhausted != 1 || st.Retries != 3 {
		t.Fatalf("stats after exhaustion: %+v", st)
	}
	// Permanent errors are not retried: one attempt only.
	s2 := NewResilientStore(NewMemStore(), RetryPolicy{MaxAttempts: 5, BaseDelay: 1, MaxDelay: 4, Seed: 3})
	if _, err := s2.Get("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get missing = %v", err)
	}
	if st := s2.Stats(); st.Retries != 0 {
		t.Fatalf("retried a permanent error: %+v", st)
	}
}

func TestResilientStoreDeterministicBackoff(t *testing.T) {
	backoff := func() int64 {
		inner := &flakyStore{Store: NewMemStore(), failsLeft: 4}
		s := NewResilientStore(inner, RetryPolicy{MaxAttempts: 6, BaseDelay: 16, MaxDelay: 64, Seed: 7})
		if err := s.Put("k", []byte("v")); err != nil {
			t.Fatal(err)
		}
		return int64(s.Stats().Backoff)
	}
	if a, b := backoff(), backoff(); a != b {
		t.Fatalf("backoff not deterministic: %d vs %d", a, b)
	}
}

func TestMirrorStoreFailoverAndReadRepair(t *testing.T) {
	a, b := NewMemStore(), NewMemStore()
	m, err := NewMirrorStore(NewIntegrityStore(a), NewIntegrityStore(b))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Put("k", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	// Corrupt replica A's copy at rest; the mirror must serve B's and
	// heal A.
	frame, _ := a.Get("k")
	a.Put("k", FlipBit(frame, 8*(len(frame)-1)))
	got, err := m.Get("k")
	if err != nil || string(got) != "payload" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	st := m.Stats()
	if st.FailoverReads != 1 || st.ReadRepairs != 1 {
		t.Fatalf("stats = %+v, want one failover and one repair", st)
	}
	// A healed: direct read through its integrity layer verifies.
	if got, err := NewIntegrityStore(a).Get("k"); err != nil || string(got) != "payload" {
		t.Fatalf("repaired replica Get = %q, %v", got, err)
	}
}

func TestMirrorStoreSurvivesDeadReplica(t *testing.T) {
	dead := NewFaultyStore(NewMemStore(), FaultConfig{})
	dead.Kill()
	alive := NewMemStore()
	m, err := NewMirrorStore(dead, alive)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Put("k", []byte("v")); err != nil {
		t.Fatalf("Put with one dead replica: %v", err)
	}
	if m.Stats().DegradedPuts != 1 {
		t.Fatalf("DegradedPuts = %d", m.Stats().DegradedPuts)
	}
	if got, err := m.Get("k"); err != nil || string(got) != "v" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	keys, err := m.Keys()
	if err != nil || len(keys) != 1 || keys[0] != "k" {
		t.Fatalf("Keys = %v, %v", keys, err)
	}
	if n, err := m.Size(); err != nil || n != 1 {
		t.Fatalf("Size = %d, %v", n, err)
	}
	if err := m.Delete("k"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := m.Delete("k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double Delete err = %v, want ErrNotFound", err)
	}
}

func TestMirrorStoreAllReplicasDown(t *testing.T) {
	d1 := NewFaultyStore(NewMemStore(), FaultConfig{})
	d2 := NewFaultyStore(NewMemStore(), FaultConfig{})
	d1.Kill()
	d2.Kill()
	m, _ := NewMirrorStore(d1, d2)
	if err := m.Put("k", []byte("v")); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Put err = %v, want ErrUnavailable", err)
	}
	if m.Stats().LostPuts != 1 {
		t.Fatalf("LostPuts = %d", m.Stats().LostPuts)
	}
	if _, err := m.Get("k"); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Get err = %v, want ErrUnavailable", err)
	}
}

// TestMirrorStoreContract runs the generic store suite over a healthy
// two-replica mirror.
func TestMirrorStoreContract(t *testing.T) {
	m, err := NewMirrorStore(NewIntegrityStore(NewMemStore()), NewIntegrityStore(NewMemStore()))
	if err != nil {
		t.Fatal(err)
	}
	storeSuite(t, m)
}

func TestResilientStoreDeadlineCapsBackoff(t *testing.T) {
	// A brownout that outlasts the attempt budget: without a deadline the
	// retry loop would accumulate ~BaseDelay * 2^attempts of virtual
	// backoff. The deadline must cut the loop short with a *permanent*
	// ErrDeadlineExceeded so the caller re-plans instead of re-queueing.
	inner := &flakyStore{Store: NewMemStore(), failsLeft: 1000}
	deadline := des.Time(50)
	s := NewResilientStore(inner, RetryPolicy{
		MaxAttempts: 20, BaseDelay: 16, MaxDelay: 1 << 20, Deadline: deadline, Seed: 5,
	})
	err := s.Put("k", []byte("v"))
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	if IsTransient(err) {
		t.Fatalf("deadline exhaustion classified transient: %v", err)
	}
	st := s.Stats()
	if st.Backoff > deadline {
		t.Fatalf("accumulated backoff %v exceeds deadline %v", st.Backoff, deadline)
	}
	if st.Exhausted != 1 {
		t.Fatalf("Exhausted = %d, want 1", st.Exhausted)
	}
	// The same policy without a deadline keeps retrying to MaxAttempts.
	inner2 := &flakyStore{Store: NewMemStore(), failsLeft: 1000}
	s2 := NewResilientStore(inner2, RetryPolicy{MaxAttempts: 20, BaseDelay: 16, MaxDelay: 1 << 20, Seed: 5})
	if err := s2.Put("k", []byte("v")); errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("no-deadline policy reported a deadline: %v", err)
	}
	if st2 := s2.Stats(); st2.Retries != 19 {
		t.Fatalf("Retries = %d, want 19", st2.Retries)
	}
}

func TestOverloadClassifiesTransient(t *testing.T) {
	wrapped := fmt.Errorf("service put %q: %w", "k", ErrOverload)
	if !IsTransient(wrapped) {
		t.Fatal("ErrOverload must ride the retry path (IsTransient)")
	}
	if !errors.Is(wrapped, ErrOverload) {
		t.Fatal("wrapped overload lost its ErrOverload identity")
	}
	if IsTransient(ErrDeadlineExceeded) {
		t.Fatal("ErrDeadlineExceeded must be permanent")
	}
}

func TestMirrorStoreQuorumAndReplicaCounters(t *testing.T) {
	dead1 := NewFaultyStore(NewMemStore(), FaultConfig{})
	dead2 := NewFaultyStore(NewMemStore(), FaultConfig{})
	alive := NewMemStore()
	m, err := NewMirrorStore(alive, dead1, dead2)
	if err != nil {
		t.Fatal(err)
	}
	// All three up: clean put, no tallies.
	if err := m.Put("a", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.PutQuorumFailures != 0 || st.ReplicaErrors[0]+st.ReplicaErrors[1]+st.ReplicaErrors[2] != 0 {
		t.Fatalf("healthy put tallied faults: %+v", st)
	}
	// One replica down: 2/3 landed — degraded but quorum held.
	dead1.Kill()
	if err := m.Put("b", []byte("v")); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.PutQuorumFailures != 0 {
		t.Fatalf("2/3 landed but PutQuorumFailures = %d", st.PutQuorumFailures)
	}
	if st.DegradedPuts != 1 || st.ReplicaErrors[1] != 1 {
		t.Fatalf("degraded put not tallied per replica: %+v", st)
	}
	// Two replicas down: 1/3 landed — quorum failure, put still "succeeds".
	dead2.Kill()
	if err := m.Put("c", []byte("v")); err != nil {
		t.Fatal(err)
	}
	st = m.Stats()
	if st.PutQuorumFailures != 1 {
		t.Fatalf("1/3 landed but PutQuorumFailures = %d", st.PutQuorumFailures)
	}
	if st.ReplicaErrors[1] != 2 || st.ReplicaErrors[2] != 1 || st.ReplicaErrors[0] != 0 {
		t.Fatalf("per-replica tallies wrong: %+v", st.ReplicaErrors)
	}
	// Stats copies are snapshots: mutating the copy must not alias.
	st.ReplicaErrors[0] = 99
	if m.Stats().ReplicaErrors[0] == 99 {
		t.Fatal("Stats aliases internal counters")
	}
}

// TestHardenedStackEndToEnd composes the full production stack — mirror
// over per-replica retry over integrity over an injected-fault sink —
// and checks values survive heavy fault pressure.
func TestHardenedStackEndToEnd(t *testing.T) {
	replica := func(seed uint64, cfg FaultConfig) Store {
		cfg.Seed = seed
		return NewResilientStore(
			NewIntegrityStore(NewFaultyStore(NewMemStore(), cfg)),
			RetryPolicy{MaxAttempts: 6, BaseDelay: 1, MaxDelay: 64, Seed: seed},
		)
	}
	m, err := NewMirrorStore(
		replica(1, FaultConfig{TransientRate: 0.1, CorruptRate: 0.05, TornWriteRate: 0.05}),
		replica(2, FaultConfig{TransientRate: 0.1, CorruptRate: 0.05, TornWriteRate: 0.05}),
	)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("checkpoint"), 100)
	wrote := 0
	for i := 0; i < 100; i++ {
		key := "seg" + string(rune('0'+i%10))
		if err := m.Put(key, payload); err != nil {
			continue // both replicas torn/lost this round: acceptable
		}
		wrote++
		got, err := m.Get(key)
		if err != nil {
			// Both copies torn in the same round is possible; what is
			// NOT acceptable is silent garbage.
			if !errors.Is(err, ErrCorrupt) && !IsTransient(err) {
				t.Fatalf("unexpected error class: %v", err)
			}
			continue
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("iteration %d: silent corruption got through the stack", i)
		}
	}
	if wrote < 50 {
		t.Fatalf("only %d/100 writes accepted — stack too fragile", wrote)
	}
}
