package storage

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// MirrorStats counts the degraded-mode work a MirrorStore performed.
type MirrorStats struct {
	// DegradedPuts counts writes that missed at least one replica (but
	// landed on at least one).
	DegradedPuts uint64
	// LostPuts counts writes that landed on no replica at all.
	LostPuts uint64
	// PutQuorumFailures counts writes that landed on fewer than a
	// majority of replicas (including total losses): the copies that
	// exist cannot outvote the copies that are missing, so a subsequent
	// failover may promote a replica without the data. A service layer
	// uses this signal to leave sync replication and journal the
	// replication debt instead of trusting the mirror.
	PutQuorumFailures uint64
	// FailoverReads counts Gets served by a non-primary replica after
	// one or more replicas failed or returned corrupt data.
	FailoverReads uint64
	// ReadRepairs counts replicas healed by writing back a value another
	// replica served.
	ReadRepairs uint64
	// ReplicaErrors tallies, per replica (by constructor order), every
	// operation that replica failed — the observability a degraded-mode
	// controller needs to tell "replica 2 is dying" from "everything is
	// a little flaky".
	ReplicaErrors []uint64
}

// MirrorStore replicates segments across N sinks — the diskless-peer
// lineage of Plank et al. [19], as an actual mechanism rather than a
// bandwidth model. Puts go to every replica and succeed if at least one
// lands; Gets fail over across replicas in order and repair replicas
// that were missing or corrupt with the value a healthy replica served.
// Stack an IntegrityStore *inside* each replica so the mirror can tell a
// corrupt copy from a good one.
type MirrorStore struct {
	mu       sync.Mutex
	replicas []Store
	stats    MirrorStats
}

// NewMirrorStore mirrors across the given replicas (at least one).
func NewMirrorStore(replicas ...Store) (*MirrorStore, error) {
	if len(replicas) == 0 {
		return nil, fmt.Errorf("storage: mirror needs at least one replica")
	}
	return &MirrorStore{
		replicas: replicas,
		stats:    MirrorStats{ReplicaErrors: make([]uint64, len(replicas))},
	}, nil
}

// Stats returns a copy of the degraded-mode counters.
func (s *MirrorStore) Stats() MirrorStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.stats
	out.ReplicaErrors = append([]uint64(nil), s.stats.ReplicaErrors...)
	return out
}

// Put implements Store: write everywhere, succeed if anywhere.
func (s *MirrorStore) Put(key string, data []byte) error { return s.put(key, data, Store.Put) }

// PutOwned implements OwnedPutter: the one frozen buffer is given to
// every replica, so R replicas keep one copy of the bytes, not R.
func (s *MirrorStore) PutOwned(key string, data []byte) error { return s.put(key, data, PutOwned) }

func (s *MirrorStore) put(key string, data []byte, put putFunc) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var errs []error
	for i, r := range s.replicas {
		if err := put(r, key, data); err != nil {
			errs = append(errs, err)
			s.stats.ReplicaErrors[i]++
		}
	}
	landed := len(s.replicas) - len(errs)
	if landed < len(s.replicas)/2+1 {
		// Fewer copies exist than are missing: a failover cannot be
		// trusted to find the data.
		s.stats.PutQuorumFailures++
	}
	switch {
	case landed == 0:
		s.stats.LostPuts++
		return fmt.Errorf("storage: mirror put %q lost on all %d replicas: %w", key, len(s.replicas), errors.Join(errs...))
	case len(errs) > 0:
		s.stats.DegradedPuts++
	}
	return nil
}

// Get implements Store: read the first healthy replica, repairing the
// ones that were missing or served corrupt bytes. A repair Puts the lent
// value, which copies, so no replica ends up sharing another's buffer.
func (s *MirrorStore) Get(key string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var errs []error
	var failed []Store
	for i, r := range s.replicas {
		data, err := r.Get(key)
		if err != nil {
			errs = append(errs, err)
			s.stats.ReplicaErrors[i]++
			// A missing or corrupt copy is repairable; a transient or
			// down replica is not (writing to it would fail too).
			if errors.Is(err, ErrNotFound) || errors.Is(err, ErrCorrupt) {
				failed = append(failed, r)
			}
			continue
		}
		if len(errs) > 0 {
			s.stats.FailoverReads++
		}
		for _, bad := range failed {
			if bad.Put(key, data) == nil {
				s.stats.ReadRepairs++
			}
		}
		return data, nil
	}
	return nil, fmt.Errorf("storage: mirror get %q failed on all %d replicas: %w", key, len(s.replicas), errors.Join(errs...))
}

// Delete implements Store: remove everywhere. Replicas that never had
// the key do not fail the delete; the key must have existed somewhere.
func (s *MirrorStore) Delete(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var errs []error
	deleted, missing := 0, 0
	for i, r := range s.replicas {
		switch err := r.Delete(key); {
		case err == nil:
			deleted++
		case errors.Is(err, ErrNotFound):
			missing++
		default:
			errs = append(errs, err)
			s.stats.ReplicaErrors[i]++
		}
	}
	switch {
	case deleted > 0:
		return nil
	case missing > 0:
		// Every reachable replica says the key does not exist.
		return fmt.Errorf("mirror delete %q: %w", key, ErrNotFound)
	default:
		return fmt.Errorf("storage: mirror delete %q failed: %w", key, errors.Join(errs...))
	}
}

// Keys implements Store: the union over reachable replicas (a key is
// readable if any replica holds it).
func (s *MirrorStore) Keys() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	union := make(map[string]bool)
	var errs []error
	reachable := 0
	for i, r := range s.replicas {
		keys, err := r.Keys()
		if err != nil {
			errs = append(errs, err)
			s.stats.ReplicaErrors[i]++
			continue
		}
		reachable++
		for _, k := range keys {
			union[k] = true
		}
	}
	if reachable == 0 {
		return nil, fmt.Errorf("storage: mirror keys failed on all replicas: %w", errors.Join(errs...))
	}
	out := make([]string, 0, len(union))
	for k := range union {
		out = append(out, k)
	}
	sort.Strings(out)
	return out, nil
}

// Size implements Store: the largest replica's footprint — the logical
// volume one full copy of the data occupies.
func (s *MirrorStore) Size() (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var best uint64
	var errs []error
	reachable := 0
	for i, r := range s.replicas {
		n, err := r.Size()
		if err != nil {
			errs = append(errs, err)
			s.stats.ReplicaErrors[i]++
			continue
		}
		reachable++
		if n > best {
			best = n
		}
	}
	if reachable == 0 {
		return 0, fmt.Errorf("storage: mirror size failed on all replicas: %w", errors.Join(errs...))
	}
	return best, nil
}
