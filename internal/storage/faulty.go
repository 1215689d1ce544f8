package storage

import (
	"fmt"
	"math/rand/v2"
	"sync"
)

// FaultConfig parameterises a FaultyStore. All rates are probabilities
// in [0, 1] evaluated independently per operation from the seeded
// stream, so a given (seed, operation sequence) pair always injects the
// same faults — the deterministic-DES requirement.
type FaultConfig struct {
	// Seed drives the fault stream.
	Seed uint64
	// TransientRate is the probability that a Put, Get or Delete fails
	// with a retryable error (wrapping ErrTransient) without touching
	// the underlying store.
	TransientRate float64
	// TornWriteRate is the probability that a Put persists only a prefix
	// of the data and reports success — the classic torn write of a
	// non-atomic sink that lost power mid-stream. Only an integrity
	// envelope can surface it later.
	TornWriteRate float64
	// CorruptRate is the probability that a Put silently flips one bit
	// of the stored copy — at-rest corruption, detected (if at all) on
	// read-back.
	CorruptRate float64
	// OutageAfterOps, when positive, kills the sink permanently after
	// that many operations: every subsequent call fails with
	// ErrUnavailable. Models a dead device or a lost diskless partner
	// node (Plank et al. [19]).
	OutageAfterOps int
}

// FaultStats counts the faults a FaultyStore injected.
type FaultStats struct {
	Ops        uint64
	Transients uint64
	TornWrites uint64
	BitFlips   uint64
	// Unavailable counts operations rejected after the permanent outage.
	Unavailable uint64
}

// FaultyStore wraps a Store and injects storage-tier failures
// deterministically: transient errors, torn writes, bit flips and a
// permanent outage. It is the adversary the resilient/integrity/mirror
// layers are tested against, and it is safe for concurrent use.
type FaultyStore struct {
	mu    sync.Mutex
	inner Store
	cfg   FaultConfig
	rng   *rand.Rand
	down  bool
	stats FaultStats
}

// NewFaultyStore wraps inner with the given fault model.
func NewFaultyStore(inner Store, cfg FaultConfig) *FaultyStore {
	return &FaultyStore{
		inner: inner,
		cfg:   cfg,
		rng:   rand.New(rand.NewPCG(cfg.Seed, 0xFA17)),
	}
}

// Stats returns a copy of the injection counters.
//
//lint:ignore deadexport counters the autonomic hardened-storage tests assert on (TestHardenedStorageRecovery)
func (s *FaultyStore) Stats() FaultStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Down reports whether the permanent outage has triggered.
//
//lint:ignore deadexport probe the autonomic hardened-storage tests assert on
func (s *FaultyStore) Down() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.down
}

// Kill forces the permanent outage immediately, regardless of
// OutageAfterOps.
//
//lint:ignore deadexport fault injector the redundancy view tests kill a tier with
func (s *FaultyStore) Kill() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.down = true
}

// step advances the operation counter and reports whether the sink is
// still up. Callers hold s.mu.
func (s *FaultyStore) step() bool {
	s.stats.Ops++
	if s.cfg.OutageAfterOps > 0 && s.stats.Ops > uint64(s.cfg.OutageAfterOps) {
		s.down = true
	}
	if s.down {
		s.stats.Unavailable++
		return false
	}
	return true
}

// roll evaluates one fault probability. Callers hold s.mu.
func (s *FaultyStore) roll(rate float64) bool {
	return rate > 0 && s.rng.Float64() < rate
}

// Put implements Store, possibly dropping the write (transient), tearing
// it, or flipping a stored bit.
func (s *FaultyStore) Put(key string, data []byte) error { return s.put(key, data, Store.Put) }

// PutOwned implements OwnedPutter, injecting the same faults as Put and
// forwarding ownership of whatever reaches the sink.
func (s *FaultyStore) PutOwned(key string, data []byte) error { return s.put(key, data, PutOwned) }

func (s *FaultyStore) put(key string, data []byte, put putFunc) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.step() {
		return fmt.Errorf("put %q: %w", key, ErrUnavailable)
	}
	if s.roll(s.cfg.TransientRate) {
		s.stats.Transients++
		return fmt.Errorf("put %q dropped: %w", key, ErrTransient)
	}
	if s.roll(s.cfg.TornWriteRate) {
		s.stats.TornWrites++
		// Persist a strict prefix and report success: the sink lied.
		// The prefix's capacity is clipped: a sealing layer below must
		// not write its envelope over payload bytes a sibling keeps.
		n := len(data) / 2
		return put(s.inner, key, data[:n:n])
	}
	if s.roll(s.cfg.CorruptRate) && len(data) > 0 {
		s.stats.BitFlips++
		return put(s.inner, key, FlipBit(data, s.rng.IntN(len(data)*8)))
	}
	return put(s.inner, key, data)
}

// Get implements Store, possibly failing transiently.
func (s *FaultyStore) Get(key string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.step() {
		return nil, fmt.Errorf("get %q: %w", key, ErrUnavailable)
	}
	if s.roll(s.cfg.TransientRate) {
		s.stats.Transients++
		return nil, fmt.Errorf("get %q timed out: %w", key, ErrTransient)
	}
	return s.inner.Get(key)
}

// Delete implements Store, possibly failing transiently.
func (s *FaultyStore) Delete(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.step() {
		return fmt.Errorf("delete %q: %w", key, ErrUnavailable)
	}
	if s.roll(s.cfg.TransientRate) {
		s.stats.Transients++
		return fmt.Errorf("delete %q dropped: %w", key, ErrTransient)
	}
	return s.inner.Delete(key)
}

// Keys implements Store. Metadata reads share the outage but not the
// per-operation fault rates (directory listings are cheap and local).
func (s *FaultyStore) Keys() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.step() {
		return nil, fmt.Errorf("keys: %w", ErrUnavailable)
	}
	return s.inner.Keys()
}

// Size implements Store.
func (s *FaultyStore) Size() (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.step() {
		return 0, fmt.Errorf("size: %w", ErrUnavailable)
	}
	return s.inner.Size()
}
