package storage_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/storage"
)

// TestHardenedStackEndToEnd composes the full production stack — mirror
// over per-replica retry over integrity over a decaying sink — and
// checks values survive heavy fault pressure.
func TestHardenedStackEndToEnd(t *testing.T) {
	d := decayDriver(t, `storage-decay transient 0.1 torn 0.05 corrupt 0.05 seed 1 store 0
storage-decay transient 0.1 torn 0.05 corrupt 0.05 seed 2 store 1`)
	replica := func(seed uint64) storage.Store {
		return storage.NewResilientStore(
			storage.NewIntegrityStore(d.WrapStore(storage.NewMemStore())),
			storage.RetryPolicy{MaxAttempts: 6, BaseDelay: 1, MaxDelay: 64, Seed: seed},
		)
	}
	m, err := storage.NewMirrorStore(replica(1), replica(2))
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
			if !errors.Is(err, storage.ErrCorrupt) && !storage.IsTransient(err) {
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
