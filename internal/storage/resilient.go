package storage

import (
	"fmt"
	"math/rand/v2"
	"sync"

	"repro/internal/des"
)

// RetryPolicy bounds the retry loop of a ResilientStore.
type RetryPolicy struct {
	// MaxAttempts is the total attempt budget per operation (>= 1).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; each further
	// retry doubles it, capped at MaxDelay.
	BaseDelay des.Time
	// MaxDelay caps the exponential growth.
	MaxDelay des.Time
	// Deadline caps the *total* virtual-time backoff an operation may
	// accumulate across its retries (0 = unbounded). Attempt counts alone
	// do not bound latency: a long-backoff brownout can hold one Put for
	// longer than the checkpoint timeslice it serves. When the next
	// backoff draw would push the op's cumulative backoff past Deadline,
	// the loop stops and the op fails wrapped in ErrDeadlineExceeded —
	// a permanent error, so callers re-plan instead of re-queueing.
	Deadline des.Time
	// Seed drives the jitter stream deterministically.
	Seed uint64
}

// DefaultRetryPolicy returns the policy used when the zero value is
// given: 5 attempts, 1 ms base, 100 ms cap.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 5, BaseDelay: des.Millisecond, MaxDelay: 100 * des.Millisecond}
}

// RetryStats counts the retry work a ResilientStore performed.
type RetryStats struct {
	// Ops is the number of operations issued through the store.
	Ops uint64
	// Retries is the number of re-issued attempts (first attempts are
	// not counted).
	Retries uint64
	// Exhausted counts operations that failed even after the full
	// attempt budget.
	Exhausted uint64
	// Backoff is the total virtual time spent waiting between attempts —
	// the latency cost of riding out transient faults, chargeable to a
	// recovery timeline.
	Backoff des.Time
}

// ResilientStore wraps a Store with bounded retries: transient failures
// (per IsTransient) are re-issued after capped exponential backoff with
// deterministic jitter; permanent failures — not-found, corruption,
// outage — return immediately. Backoff is accounted in virtual time via
// Stats().Backoff rather than by sleeping: the simulation's clock owner
// decides what that latency costs.
type ResilientStore struct {
	mu     sync.Mutex
	inner  Store
	policy RetryPolicy
	rng    *rand.Rand
	stats  RetryStats
}

// NewResilientStore wraps inner with the given policy (zero value →
// DefaultRetryPolicy).
func NewResilientStore(inner Store, policy RetryPolicy) *ResilientStore {
	if policy.MaxAttempts == 0 {
		def := DefaultRetryPolicy()
		def.Seed = policy.Seed
		def.Deadline = policy.Deadline
		policy = def
	}
	if policy.MaxAttempts < 1 {
		policy.MaxAttempts = 1
	}
	if policy.MaxDelay < policy.BaseDelay {
		policy.MaxDelay = policy.BaseDelay
	}
	return &ResilientStore{
		inner:  inner,
		policy: policy,
		rng:    rand.New(rand.NewPCG(policy.Seed, 0xB0FF)),
	}
}

// Stats returns a copy of the retry counters.
func (s *ResilientStore) Stats() RetryStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// do runs op under the retry loop.
func (s *ResilientStore) do(what, key string, op func() error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Ops++
	delay := s.policy.BaseDelay
	var opBackoff des.Time
	var err error
	for attempt := 1; ; attempt++ {
		if err = op(); err == nil || !IsTransient(err) {
			return err
		}
		if attempt >= s.policy.MaxAttempts {
			s.stats.Exhausted++
			return &giveUpError{what: what, key: key, attempts: attempt, cause: err}
		}
		// Full jitter over the current window keeps concurrent retriers
		// from synchronising, deterministically per seed.
		wait := des.Time(s.rng.Int64N(int64(delay) + 1))
		if s.policy.Deadline > 0 && opBackoff+wait > s.policy.Deadline {
			// The next wait would outlast the op's virtual-time budget.
			s.stats.Exhausted++
			return &giveUpError{what: what, key: key, attempts: attempt, cause: err,
				backoff: opBackoff + wait, deadline: s.policy.Deadline}
		}
		opBackoff += wait
		s.stats.Backoff += wait
		s.stats.Retries++
		if delay *= 2; delay > s.policy.MaxDelay {
			delay = s.policy.MaxDelay
		}
	}
}

// giveUpError is the retry loop giving up on an op whose last attempt
// failed with the transient cause: its attempt budget is spent, or
// (deadline > 0) the next backoff would take the op's total to backoff,
// past deadline. A saturated store gives up often and the caller mostly
// counts the failure, so the text is formatted only when read.
type giveUpError struct {
	what, key         string
	attempts          int
	cause             error
	backoff, deadline des.Time
}

func (e *giveUpError) Error() string {
	if e.deadline == 0 {
		return fmt.Sprintf("storage: %s %q failed after %d attempts: %v", e.what, e.key, e.attempts, e.cause)
	}
	return fmt.Sprintf("storage: %s %q: backoff %v would exceed deadline %v after %d attempts (%v): %v",
		e.what, e.key, e.backoff, e.deadline, e.attempts, e.cause, ErrDeadlineExceeded)
}

// Unwrap returns the transient cause when the attempt budget ran out. A
// deadline give-up is *permanent*: the cause is kept for the text but
// deliberately not wrapped, so the deadline class wins the errors.Is
// classification.
func (e *giveUpError) Unwrap() error {
	if e.deadline == 0 {
		return e.cause
	}
	return ErrDeadlineExceeded
}

// Put implements Store.
func (s *ResilientStore) Put(key string, data []byte) error { return s.put(key, data, Store.Put) }

// PutOwned implements OwnedPutter: every attempt offers the same frozen
// buffer.
func (s *ResilientStore) PutOwned(key string, data []byte) error { return s.put(key, data, PutOwned) }

func (s *ResilientStore) put(key string, data []byte, put putFunc) error {
	return s.do("put", key, func() error { return put(s.inner, key, data) })
}

// Get implements Store.
func (s *ResilientStore) Get(key string) ([]byte, error) {
	var out []byte
	err := s.do("get", key, func() error {
		var err error
		out, err = s.inner.Get(key)
		return err
	})
	return out, err
}

// Delete implements Store.
func (s *ResilientStore) Delete(key string) error {
	return s.do("delete", key, func() error { return s.inner.Delete(key) })
}

// Keys implements Store.
func (s *ResilientStore) Keys() ([]string, error) {
	var out []string
	err := s.do("keys", "*", func() error {
		var err error
		out, err = s.inner.Keys()
		return err
	})
	return out, err
}

// Size implements Store.
func (s *ResilientStore) Size() (uint64, error) {
	var out uint64
	err := s.do("size", "*", func() error {
		var err error
		out, err = s.inner.Size()
		return err
	})
	return out, err
}
