package storage

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// ownershipStacks are the in-memory stacks the Store ownership rule is
// checked on: every layer that copies, seals, forwards or injects.
func ownershipStacks(t *testing.T) map[string]Store {
	t.Helper()
	mirror, err := NewMirrorStore(
		NewResilientStore(NewIntegrityStore(NewMemStore()), RetryPolicy{}),
		NewResilientStore(NewIntegrityStore(NewFaultyStore(NewMemStore(), FaultConfig{Seed: 1})), RetryPolicy{}),
	)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Store{
		"mem":            NewMemStore(),
		"integrity(mem)": NewIntegrityStore(NewMemStore()),
		"faulty(mem)":    NewFaultyStore(NewMemStore(), FaultConfig{Seed: 1}),
		"mirror stack":   mirror,
	}
}

// TestStoreBufferOwnership pins the rule in the Store doc comment: Put
// borrows the caller's buffer, Get returns a private one. Scribbling on
// either afterwards never changes what a later Get returns.
func TestStoreBufferOwnership(t *testing.T) {
	for name, s := range ownershipStacks(t) {
		t.Run(name, func(t *testing.T) {
			want := bytes.Repeat([]byte("segment!"), 64)
			buf := append([]byte(nil), want...)
			if err := s.Put("k", buf); err != nil {
				t.Fatal(err)
			}
			for i := range buf {
				buf[i] = 0xEE
			}
			first, err := s.Get("k")
			if err != nil || !bytes.Equal(first, want) {
				t.Fatalf("Get after the caller reused its Put buffer: %v, equal %v", err, bytes.Equal(first, want))
			}
			for i := range first {
				first[i] = 0xDD
			}
			_ = append(first, "tail"...)
			second, err := s.Get("k")
			if err != nil || !bytes.Equal(second, want) {
				t.Fatalf("Get after a previous Get's buffer was mutated: %v, equal %v", err, bytes.Equal(second, want))
			}
		})
	}
}

// TestPutOwnedKeepsBuffer: the owned fast path stores the caller's
// buffer itself; a store without the fast path falls back to Put.
func TestPutOwnedKeepsBuffer(t *testing.T) {
	mem := NewMemStore()
	data := []byte("owned")
	if err := PutOwned(NewFaultyStore(mem, FaultConfig{}), "k", data); err != nil {
		t.Fatal(err)
	}
	if &mem.m["k"][0] != &data[0] {
		t.Fatal("PutOwned through a pass-through wrapper copied the buffer")
	}
	var plain Store = struct{ Store }{mem} // hides MemStore.PutOwned
	if err := PutOwned(plain, "p", data); err != nil {
		t.Fatal(err)
	}
	if got, err := mem.Get("p"); err != nil || string(got) != "owned" {
		t.Fatalf("fallback Put: %q, %v", got, err)
	}
	if &mem.m["p"][0] == &data[0] {
		t.Fatal("plain Put kept the caller's buffer")
	}
}

// TestIntegrityPutAllocatesPayloadOnce: sealing allocates the envelope;
// the backing MemStore keeps that buffer rather than copying it again.
func TestIntegrityPutAllocatesPayloadOnce(t *testing.T) {
	s := NewIntegrityStore(NewMemStore())
	data := make([]byte, 64<<10)
	if err := s.Put("k", data); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { s.Put("k", data) }); allocs != 1 {
		t.Fatalf("IntegrityStore(MemStore).Put allocates %v objects per call, want 1 (the sealed frame)", allocs)
	}
}

// TestViewLendsStoredBuffer: View hands out the bytes MemStore holds —
// bare and through every forwarding wrapper, where it is the payload
// inside the sealed frame — and stays intact when the key is rewritten.
// A store without the fast path answers View with a Get.
func TestViewLendsStoredBuffer(t *testing.T) {
	mem := NewMemStore()
	mirror, err := NewMirrorStore(
		NewResilientStore(NewIntegrityStore(NewFaultyStore(mem, FaultConfig{Seed: 1})), RetryPolicy{}),
		NewResilientStore(NewIntegrityStore(NewMemStore()), RetryPolicy{}),
	)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte("segment!"), 64)
	if err := mirror.Put("k", want); err != nil {
		t.Fatal(err)
	}
	frame, err := View(mem, "k")
	if err != nil || &frame[0] != &mem.m["k"][0] {
		t.Fatalf("MemStore.View copied the stored value (err %v)", err)
	}
	got, err := View(mirror, "k")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("View through the stack: %v, equal %v", err, bytes.Equal(got, want))
	}
	if &got[0] != &mem.m["k"][envelopeHeader] {
		t.Fatal("View through Mirror(Resilient(Integrity(Faulty(Mem)))) copied the payload")
	}
	if err := mirror.Put("k", []byte("rewritten")); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("rewriting the key changed an earlier view")
	}

	var plain Store = struct{ Store }{mem} // hides MemStore.View
	cp, err := View(plain, "k")
	if err != nil || !bytes.Equal(cp, mem.m["k"]) {
		t.Fatalf("fallback Get: %v", err)
	}
	if &cp[0] == &mem.m["k"][0] {
		t.Fatal("a store without View lent its buffer")
	}
	if _, err := View(mem, "missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("View of a missing key: %v, want ErrNotFound", err)
	}
}

// TestViewFaultsLikeGet: a View is one "get" to every wrapper — the same
// injected faults, retries, failover and read-repair, in the same order
// — so swapping Get for View moves no seeded result.
func TestViewFaultsLikeGet(t *testing.T) {
	type outcome struct {
		data   string
		err    string
		faults FaultStats
		retry  RetryStats
		mirror MirrorStats
	}
	run := func(read func(Store, string) ([]byte, error)) []outcome {
		faulty := NewFaultyStore(NewMemStore(), FaultConfig{Seed: 9, TransientRate: 0.3, CorruptRate: 0.3, OutageAfterOps: 60})
		res := NewResilientStore(NewIntegrityStore(faulty), RetryPolicy{Seed: 9, MaxAttempts: 3, BaseDelay: 1, MaxDelay: 8})
		m, err := NewMirrorStore(res, NewIntegrityStore(NewMemStore()))
		if err != nil {
			t.Fatal(err)
		}
		var out []outcome
		for i := 0; i < 40; i++ {
			key := string(rune('a' + i%5))
			if i < 10 {
				m.Put(key, bytes.Repeat([]byte(key), 32))
				continue
			}
			o := outcome{}
			data, err := read(m, key)
			if o.data = string(data); err != nil {
				o.err = err.Error()
			}
			o.faults, o.retry, o.mirror = faulty.Stats(), res.Stats(), m.Stats()
			out = append(out, o)
		}
		return out
	}
	if got, want := run(View), run(Store.Get); !reflect.DeepEqual(got, want) {
		t.Fatalf("View and Get diverge:\nview %+v\nget  %+v", got, want)
	}
}

// BenchmarkIntegrityMirrorPut is the hardened write path of one segment:
// Mirror(Resilient(Integrity(Mem)) × 2), as the benchmark workloads and
// the A14 ablation stack it.
func BenchmarkIntegrityMirrorPut(b *testing.B) {
	var replicas []Store
	for i := 0; i < 2; i++ {
		replicas = append(replicas, NewResilientStore(NewIntegrityStore(NewMemStore()), DefaultRetryPolicy()))
	}
	m, err := NewMirrorStore(replicas...)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 512<<10)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Put("rank000/seg000000", data); err != nil {
			b.Fatal(err)
		}
	}
}
