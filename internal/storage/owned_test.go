package storage

import "testing"

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
