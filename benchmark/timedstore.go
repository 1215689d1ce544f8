package main

import (
	"repro/internal/autonomic"
	"repro/internal/des"
	"repro/internal/mpi"
	"repro/internal/storage"
)

// storeCounts are the operation counts one layer of the storage stack
// saw through its timing decorator(s).
type storeCounts struct {
	Puts, Gets         uint64
	PutBytes, GetBytes uint64
}

// storeTrace hands out timing decorators that record one span per
// storage.Store call and count per layer name. Decorators of the same
// layer (the two replicas of a mirror) share one count.
type storeTrace struct {
	rec    *recorder
	counts map[string]*storeCounts
}

func newStoreTrace(rec *recorder) *storeTrace {
	return &storeTrace{rec: rec, counts: make(map[string]*storeCounts)}
}

// wrap interposes a timing decorator named layer above inner. A nil
// trace returns inner itself, so the untraced stack carries no
// decorator at all.
func (t *storeTrace) wrap(layer string, inner storage.Store) storage.Store {
	if t == nil {
		return inner
	}
	c := t.counts[layer]
	if c == nil {
		c = &storeCounts{}
		t.counts[layer] = c
	}
	return &timedStore{layer: layer, inner: inner, rec: t.rec, n: c}
}

// timedStore is the timing storage.Store decorator: it forwards every
// call unchanged — arguments, results and errors, wrapped sentinels
// included — and records a span around it.
type timedStore struct {
	layer string
	inner storage.Store
	rec   *recorder
	n     *storeCounts
}

func (s *timedStore) Put(key string, data []byte) error {
	id := s.rec.begin(s.layer+".put", int64(len(data)))
	err := s.inner.Put(key, data)
	s.rec.end(id)
	s.n.Puts++
	s.n.PutBytes += uint64(len(data))
	return err
}

func (s *timedStore) Get(key string) ([]byte, error) {
	id := s.rec.begin(s.layer+".get", 0)
	data, err := s.inner.Get(key)
	s.rec.spans[id].Bytes = int64(len(data))
	s.rec.end(id)
	s.n.Gets++
	s.n.GetBytes += uint64(len(data))
	return data, err
}

func (s *timedStore) Delete(key string) error {
	id := s.rec.begin(s.layer+".delete", 0)
	err := s.inner.Delete(key)
	s.rec.end(id)
	return err
}

func (s *timedStore) Keys() ([]string, error) {
	id := s.rec.begin(s.layer+".keys", 0)
	keys, err := s.inner.Keys()
	s.rec.end(id)
	return keys, err
}

func (s *timedStore) Size() (uint64, error) {
	id := s.rec.begin(s.layer+".size", 0)
	n, err := s.inner.Size()
	s.rec.end(id)
	return n, err
}

// Storage stack layer names, outermost first. A layer's span covers the
// wrapper of that name and everything below it; its self time is the
// wrapper's own code.
const (
	layerMirror    = "storage.mirror"
	layerResilient = "storage.resilient"
	layerIntegrity = "storage.integrity"
	layerMem       = "storage.mem"
)

// stack is the hardened storage tier every checkpointing workload
// writes through: Mirror(Resilient(Integrity(Mem)) × 2), with a timing
// decorator between every pair of wrappers when traced. The concrete
// wrappers stay reachable so their public stats can be read after an op.
type stack struct {
	top       storage.Store
	mirror    *storage.MirrorStore
	resilient []*storage.ResilientStore
	integrity []*storage.IntegrityStore
}

// buildStack assembles the tier. below, when non-nil, is interposed
// directly above replica 0's MemStore — where the chaos driver injects
// outages and bit flips — leaving replica 1 healthy, so the mirror's
// failover and read-repair are what keep a faulted run readable.
func buildStack(t *storeTrace, below func(storage.Store) storage.Store) (*stack, error) {
	st := &stack{}
	var replicas []storage.Store
	for i := 0; i < 2; i++ {
		var bottom storage.Store = storage.NewMemStore()
		if i == 0 && below != nil {
			bottom = below(bottom)
		}
		integ := storage.NewIntegrityStore(t.wrap(layerMem, bottom))
		res := storage.NewResilientStore(t.wrap(layerIntegrity, integ), storage.DefaultRetryPolicy())
		st.integrity = append(st.integrity, integ)
		st.resilient = append(st.resilient, res)
		replicas = append(replicas, t.wrap(layerResilient, res))
	}
	m, err := storage.NewMirrorStore(replicas...)
	if err != nil {
		return nil, err
	}
	st.mirror = m
	st.top = t.wrap(layerMirror, m)
	return st, nil
}

// timedFactory decorates an autonomic.Factory with spans around New
// (team start-up) and Attach (re-attach after every recovery), and
// remembers every incarnation's world so its counters can be read once
// the op is over.
type timedFactory struct {
	inner  autonomic.Factory
	rec    *recorder
	worlds *[]*mpi.World
}

func (f timedFactory) New(eng *des.Engine, world *mpi.World) (autonomic.Computation, error) {
	*f.worlds = append(*f.worlds, world)
	id := f.rec.begin("autonomic.factory_new", 0)
	c, err := f.inner.New(eng, world)
	f.rec.end(id)
	return c, err
}

func (f timedFactory) Attach(eng *des.Engine, world *mpi.World, iter int) (autonomic.Computation, error) {
	*f.worlds = append(*f.worlds, world)
	id := f.rec.begin("autonomic.factory_attach", 0)
	c, err := f.inner.Attach(eng, world, iter)
	f.rec.end(id)
	return c, err
}
