package storage

import (
	"bytes"
	"testing"
)

// TestPutOwnedKeepsBuffer: the owned fast path stores the caller's
// buffer itself; a store without the fast path falls back to Put.
func TestPutOwnedKeepsBuffer(t *testing.T) {
	mem := NewMemStore()
	data := []byte("owned")
	if err := PutOwned(NewResilientStore(mem, RetryPolicy{}), "k", data); err != nil {
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

// TestMemStoreGetLendsClipped: Get lends the stored value itself, with
// its capacity clipped to its length, so an append to the result
// reallocates instead of writing into the buffer the store keeps.
func TestMemStoreGetLendsClipped(t *testing.T) {
	mem := NewMemStore()
	data := make([]byte, 5, 64)
	if err := mem.PutOwned("k", data); err != nil {
		t.Fatal(err)
	}
	got, err := mem.Get("k")
	if err != nil || &got[0] != &data[0] {
		t.Fatalf("Get copied the stored value (err %v)", err)
	}
	if cap(got) != len(got) {
		t.Fatalf("Get lent cap %d for len %d: an append would write into the store's array", cap(got), len(got))
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

// sealable returns a copy of data with SealRoom spare bytes, as a writer
// that reserves the envelope's room hands it over.
func sealable(data []byte) []byte {
	return append(make([]byte, 0, len(data)+SealRoom), data...)
}

// TestIntegrityPutOwnedSealsInPlace: a buffer with SealRoom spare bytes
// is sealed where it lies, and two IntegrityStores given the same buffer
// keep the same frame; a buffer without the room is sealed into a copy.
func TestIntegrityPutOwnedSealsInPlace(t *testing.T) {
	payload := []byte("segment bytes")
	memA, memB := NewMemStore(), NewMemStore()
	buf := sealable(payload)
	for _, mem := range []*MemStore{memA, memB} {
		if err := NewIntegrityStore(mem).PutOwned("k", buf); err != nil {
			t.Fatal(err)
		}
		frame := mem.m["k"]
		if &frame[0] != &buf[0] || len(frame) != len(payload)+SealRoom || cap(frame) != len(frame) {
			t.Fatalf("stored frame len %d cap %d, shared %v: want the buffer itself, clipped to payload+SealRoom",
				len(frame), cap(frame), &frame[0] == &buf[0])
		}
		if got, err := Open(frame); err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("in-place frame opens to %q, %v", got, err)
		}
		if !bytes.Equal(frame, Seal(payload)) {
			t.Fatal("in-place frame differs from Seal's")
		}
	}
	short := bytes.Clone(payload)
	if err := NewIntegrityStore(memA).PutOwned("s", short[:len(short):len(short)]); err != nil {
		t.Fatal(err)
	}
	if frame := memA.m["s"]; &frame[0] == &short[0] || !bytes.Equal(frame, Seal(payload)) {
		t.Fatal("a buffer without SealRoom spare was not sealed into a fresh frame")
	}
}

// TestSiblingSealWritesNothing: a replica sealing a frozen buffer its
// sibling already sealed finds the trailer in place and writes nothing,
// so a reader of the sibling's frame does not race with it (run under
// -race: a rewrite of the same bytes is still a write).
func TestSiblingSealWritesNothing(t *testing.T) {
	first, second := NewIntegrityStore(NewMemStore()), NewIntegrityStore(NewMemStore())
	buf := sealable([]byte("shared segment"))
	if err := first.PutOwned("k", buf); err != nil {
		t.Fatal(err)
	}
	done := make(chan error)
	go func() {
		var err error
		for i := 0; i < 100 && err == nil; i++ {
			_, err = first.Get("k")
		}
		done <- err
	}()
	if err := second.PutOwned("k", buf); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// hardenedMirror is the hardened write path of one segment:
// Mirror(Resilient(Integrity(Mem)) × 2), as the benchmark workloads and
// the A14 ablation stack it.
func hardenedMirror(tb testing.TB) *MirrorStore {
	var replicas []Store
	for i := 0; i < 2; i++ {
		replicas = append(replicas, NewResilientStore(NewIntegrityStore(NewMemStore()), DefaultRetryPolicy()))
	}
	m, err := NewMirrorStore(replicas...)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// TestHardenedPutOwnedAllocatesNothing: giving a buffer with SealRoom
// spare to the hardened stack, on a key it already holds, allocates
// nothing — no frame per replica, no copy, no closure.
func TestHardenedPutOwnedAllocatesNothing(t *testing.T) {
	m := hardenedMirror(t)
	buf := sealable(make([]byte, 64<<10))
	const key = "rank000/seg000000"
	if err := m.PutOwned(key, buf); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { m.PutOwned(key, buf) }); allocs != 0 {
		t.Fatalf("Mirror(Resilient(Integrity(Mem)) x 2).PutOwned allocates %v objects per call, want 0", allocs)
	}
}

// BenchmarkIntegrityMirrorPut is the hardened write path of one segment:
// lent is Put (each replica seals a copy), owned is PutOwned of a buffer
// with SealRoom spare (sealed in place once, kept by both replicas).
func BenchmarkIntegrityMirrorPut(b *testing.B) {
	data := make([]byte, 512<<10)
	const key = "rank000/seg000000"
	b.Run("lent", func(b *testing.B) {
		m := hardenedMirror(b)
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := m.Put(key, data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("owned", func(b *testing.B) {
		m := hardenedMirror(b)
		buf := sealable(data)
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := m.PutOwned(key, buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}
