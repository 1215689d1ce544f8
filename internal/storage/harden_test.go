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

// deadStore stands in for a lost device: once down, every call fails
// with ErrUnavailable.
type deadStore struct {
	Store
	down bool
}

func (s *deadStore) Put(key string, data []byte) error {
	if s.down {
		return ErrUnavailable
	}
	return s.Store.Put(key, data)
}

func (s *deadStore) Get(key string) ([]byte, error) {
	if s.down {
		return nil, ErrUnavailable
	}
	return s.Store.Get(key)
}

func (s *deadStore) Delete(key string) error {
	if s.down {
		return ErrUnavailable
	}
	return s.Store.Delete(key)
}

func (s *deadStore) Keys() ([]string, error) {
	if s.down {
		return nil, ErrUnavailable
	}
	return s.Store.Keys()
}

func (s *deadStore) Size() (uint64, error) {
	if s.down {
		return 0, ErrUnavailable
	}
	return s.Store.Size()
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
	dead := &deadStore{Store: NewMemStore(), down: true}
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
	d1 := &deadStore{Store: NewMemStore(), down: true}
	d2 := &deadStore{Store: NewMemStore(), down: true}
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

// refusingStore fails every Put with err.
type refusingStore struct {
	Store
	err error
}

func (r refusingStore) Put(string, []byte) error { return r.err }

// TestResilientStoreGiveUpErrors pins both give-up errors to the
// fmt.Errorf text they are formatted lazily in place of, and their
// classification: an exhausted attempt budget wraps the transient
// cause; a deadline give-up names the cause but wraps only
// ErrDeadlineExceeded.
func TestResilientStoreGiveUpErrors(t *testing.T) {
	const key = "rank000/seg\"1\""
	cause := fmt.Errorf("svc: %w", ErrOverload)
	for _, tc := range []struct {
		name   string
		policy RetryPolicy
		want   func(g *giveUpError) error
		is     map[error]bool
	}{
		{
			name:   "attempt budget",
			policy: RetryPolicy{MaxAttempts: 4, BaseDelay: 1, MaxDelay: 4, Seed: 2},
			want: func(g *giveUpError) error {
				return fmt.Errorf("storage: %s %q failed after %d attempts: %w", "put", key, 4, cause)
			},
			is: map[error]bool{ErrTransient: true, ErrOverload: true, ErrDeadlineExceeded: false, ErrNotFound: false},
		},
		{
			name:   "deadline",
			policy: RetryPolicy{MaxAttempts: 20, BaseDelay: 16, MaxDelay: 1 << 20, Deadline: 50, Seed: 5},
			want: func(g *giveUpError) error {
				return fmt.Errorf("storage: %s %q: backoff %v would exceed deadline %v after %d attempts (%v): %w",
					"put", key, g.backoff, des.Time(50), g.attempts, cause, ErrDeadlineExceeded)
			},
			is: map[error]bool{ErrTransient: false, ErrOverload: false, ErrDeadlineExceeded: true, ErrNotFound: false},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewResilientStore(refusingStore{Store: NewMemStore(), err: cause}, tc.policy)
			err := s.Put(key, []byte("v"))
			var g *giveUpError
			if !errors.As(err, &g) {
				t.Fatalf("err = %#v, want a *giveUpError", err)
			}
			if tc.policy.Deadline > 0 && (g.backoff <= tc.policy.Deadline || g.attempts >= tc.policy.MaxAttempts) {
				t.Fatalf("deadline give-up at backoff %v after %d attempts", g.backoff, g.attempts)
			}
			if want := tc.want(g); err.Error() != want.Error() {
				t.Fatalf("text\n %q\nwant\n %q", err, want)
			}
			for sentinel, want := range tc.is {
				if errors.Is(err, sentinel) != want {
					t.Errorf("errors.Is(err, %v) = %v, want %v", sentinel, !want, want)
				}
			}
		})
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
	dead1 := &deadStore{Store: NewMemStore()}
	dead2 := &deadStore{Store: NewMemStore()}
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
	dead1.down = true
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
	dead2.down = true
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
