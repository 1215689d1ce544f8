package ckptstore

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/des"
	"repro/internal/storage"
)

// The buffer-ownership contract on the service path (DESIGN.md §10):
// Client.Put borrows the caller's buffer and sends it beside a header
// encoded into the client's reused wire buffer; the decoded payload
// aliases the caller's buffer; a put that comes to rest is copied once,
// and that frozen copy is what each replica and the spill journal keep —
// nothing of the request. These tests scribble over the borrowed
// buffers after Put returns and check that every resting place still
// holds the bytes that were acknowledged.

const ownedPayloadLen = 4096

// headerSized is the capacity the client's wire buffer must stay below:
// it holds a request's header, never its payload.
const headerSized = 1 << 10

// putThenScribble puts a recognisable value under key through c, then
// destroys every buffer the put borrowed: the caller's, directly, and
// the client's reused wire and response buffers, by sending a second,
// different put of the same size through them. It returns the value
// that was acknowledged.
func putThenScribble(t *testing.T, c *Client, key string) []byte {
	t.Helper()
	want := bytes.Repeat([]byte{0xA5}, ownedPayloadLen)
	buf := append([]byte(nil), want...)
	if err := c.Put(key, buf); err != nil {
		t.Fatalf("put %q: %v", key, err)
	}
	for i := range buf {
		buf[i] = 0xEE
	}
	if err := c.Put(key+"/next", bytes.Repeat([]byte{0x11}, ownedPayloadLen)); err != nil {
		t.Fatalf("second put: %v", err)
	}
	if cap(c.wire) >= headerSized {
		t.Fatalf("wire buffer grew to %d bytes: the request copied its payload", cap(c.wire))
	}
	return want
}

func wantReplica(t *testing.T, m *storage.MemStore, i int, key string, want []byte) {
	t.Helper()
	got, err := m.Get(key)
	if err != nil {
		t.Fatalf("replica %d: %v", i, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("replica %d holds %x…, want %x…: it shares a borrowed buffer", i, got[:4], want[:4])
	}
}

func wantJournal(t *testing.T, svc *Service, key string, want []byte) {
	t.Helper()
	e, ok := svc.journal[key]
	if !ok {
		t.Fatalf("no journal entry for %q", key)
	}
	if !bytes.Equal(e.data, want) {
		t.Fatalf("journal holds %x…, want %x…: it shares a borrowed buffer", e.data[:4], want[:4])
	}
}

func TestPutBorrowsOnSyncPath(t *testing.T) {
	svc, _, mems := newTestService(t, nil)
	want := putThenScribble(t, svc.Client(0), "k")
	if st := svc.Stats(); st.SyncAcks != 2 {
		t.Fatalf("stats: %+v", st)
	}
	for i, m := range mems {
		wantReplica(t, m, i, "k", want)
	}
	// The replicas share one frozen copy, so damage replaces a value
	// rather than changing it: damaging one replica's stored value (what a
	// bit flip in its memory would do) must not reach the others.
	_ = mems[0].PutOwned("k", []byte("damaged"))
	wantReplica(t, mems[1], 1, "k", want)
	wantReplica(t, mems[2], 2, "k", want)
}

func TestPutBorrowsOnAsyncPath(t *testing.T) {
	svc, eng, mems := newTestService(t, nil)
	svc.Crash(1)
	svc.Crash(2)
	want := putThenScribble(t, svc.Client(0), "k")
	if st := svc.Stats(); st.AsyncAcks != 2 || st.JournaledBytes != 2*ownedPayloadLen {
		t.Fatalf("stats: %+v", st)
	}
	wantReplica(t, mems[0], 0, "k", want)
	wantJournal(t, svc, "k", want)
	// The journal's copy is what drain replicates once the group heals.
	svc.Heal(1)
	svc.Heal(2)
	eng.Run(eng.Now() + des.Second)
	for i, m := range mems {
		wantReplica(t, m, i, "k", want)
	}
}

func TestPutBorrowsOnSpillAndPromotionPath(t *testing.T) {
	svc, eng, mems := newTestService(t, nil)
	svc.CrashLeader()
	want := putThenScribble(t, svc.Client(0), "k")
	if st := svc.Stats(); st.SpillAcks != 2 {
		t.Fatalf("stats: %+v", st)
	}
	wantJournal(t, svc, "k", want)
	c := svc.Client(0)
	if got, err := c.Get("k"); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("Get during promotion = %x…, %v", got[:4], err)
	}
	// Promotion completes and the spilled value drains to the survivors.
	eng.Run(eng.Now() + 2*des.Second)
	if st := svc.Stats(); st.Failovers != 1 || st.DrainedBytes != 2*ownedPayloadLen {
		t.Fatalf("stats after promotion: %+v", st)
	}
	wantReplica(t, mems[1], 1, "k", want)
	wantReplica(t, mems[2], 2, "k", want)
}

// TestGetResultStaysPrivate: a Get result belongs to the caller — later
// ops through the same client (which reuse its wire buffer, and for a
// Put or Delete its response buffer) do not change it, and changing it
// does not change what the service holds. Checked for a replica-served
// and a journal-served read.
func TestGetResultStaysPrivate(t *testing.T) {
	for _, tc := range []struct {
		name  string
		setup func(*Service)
	}{
		{"replica", func(*Service) {}},
		{"journal", func(s *Service) { s.Crash(1); s.Crash(2) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc, _, _ := newTestService(t, nil)
			tc.setup(svc)
			c := svc.Client(0)
			a, b := bytes.Repeat([]byte{0xA5}, ownedPayloadLen), bytes.Repeat([]byte{0x5A}, ownedPayloadLen)
			if err := c.Put("a", a); err != nil {
				t.Fatal(err)
			}
			if err := c.Put("b", b); err != nil {
				t.Fatal(err)
			}
			got, err := c.Get("a")
			if err != nil {
				t.Fatal(err)
			}
			if cap(got) != len(got) {
				t.Fatalf("cap %d != len %d: an append to a Get result could write into the response buffer", cap(got), len(got))
			}
			if _, err := c.Get("b"); err != nil {
				t.Fatal(err)
			}
			if err := c.Put("c", b); err != nil {
				t.Fatal(err)
			}
			if err := c.Delete("b"); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, a) {
				t.Fatal("a later op through the client changed an earlier Get result")
			}
			for i := range got {
				got[i] = 0xEE
			}
			if again, err := c.Get("a"); err != nil || !bytes.Equal(again, a) {
				t.Fatalf("mutating a Get result changed the stored value (%v)", err)
			}
		})
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the mean heap bytes fn
// allocates per call.
func bytesPerRun(runs int, fn func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn() // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestPutAllocationBudget guards what the A17 saturation sweep depends
// on: a put the admission controller sheds — three of four puts at 32
// clients — copies no payload byte and allocates two small objects, and
// an acknowledged put allocates one copy of its payload, which every
// replica shares, and nothing else of that size. Neither grows the
// client's wire buffer past a header.
func TestPutAllocationBudget(t *testing.T) {
	const payloadLen = 64 << 10
	payload := bytes.Repeat([]byte{7}, payloadLen)
	key := ckpt.SegmentKey(0, 1)

	t.Run("shed", func(t *testing.T) {
		svc, _, _ := newTestService(t, func(c *Config) { c.InFlightBudget = payloadLen / 2 })
		c := svc.Client(0)
		shed := func() {
			if err := c.Put(key, payload); !storage.IsTransient(err) {
				t.Fatalf("err = %v, want a retryable shed", err)
			}
		}
		shed() // grows the wire and response buffers
		b := bytesPerRun(100, shed)
		if b > 96 {
			t.Fatalf("a shed put allocates %.0f bytes, want two small objects (<= 96 bytes)", b)
		}
		// The decoded key string and the client-side error; the request
		// header and the response reuse the client's buffers.
		allocs := testing.AllocsPerRun(100, shed)
		if allocs > 2 {
			t.Fatalf("a shed put makes %v allocations, want <= 2", allocs)
		}
		if cap(c.wire) >= headerSized {
			t.Fatalf("wire buffer holds %d bytes: a shed put copied its payload", cap(c.wire))
		}
		t.Logf("shed put: %.0f bytes, %v allocations", b, allocs)
		if st := svc.Stats(); st.OverloadSheds != st.Puts || st.AckedPuts != 0 {
			t.Fatalf("stats: %+v", st)
		}
	})

	t.Run("acked", func(t *testing.T) {
		svc, eng, mems := newTestService(t, nil)
		c := svc.Client(0)
		acked := func() {
			if err := c.Put(key, payload); err != nil {
				t.Fatal(err)
			}
			// Close the batch window and retire the in-flight bytes, so
			// the next put opens a batch of its own.
			eng.Run(eng.Now() + des.Second)
		}
		acked()
		b := bytesPerRun(50, acked)
		if cap(c.wire) >= headerSized {
			t.Fatalf("wire buffer holds %d bytes after an acked %d-byte put: the request copied its payload", cap(c.wire), payloadLen)
		}
		if lo, hi := float64(payloadLen), float64(payloadLen+payloadLen/8); b < lo || b > hi {
			t.Fatalf("an acked put allocates %.0f bytes, want one copy shared by the %d replicas (%.0f..%.0f)", b, len(mems), lo, hi)
		}
		first, err := mems[0].Get(key)
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range mems[1:] {
			if got, err := m.Get(key); err != nil || &got[0] != &first[0] {
				t.Fatalf("replica %d holds its own copy (err %v): the put copied per replica", i+1, err)
			}
		}
		if st := svc.Stats(); st.SyncAcks != st.Puts || st.Batches != st.Puts {
			t.Fatalf("stats: %+v", st)
		}
		t.Logf("acked put: %.0f bytes for one %d-byte copy shared by %d replicas", b, payloadLen, len(mems))
	})
}

// BenchmarkClientPut is the client-side ckptstore rung: one 64 KB put
// through Client.Put — header encode, decode, admission, whatever the
// durability level copies, and the response round trip — the path A17's
// clients drive. sync replicates to three in-memory replicas (one shared
// payload copy), shed is refused by the admission controller (no payload
// byte moves). Where BenchmarkServiceHandlePut times Handle on a frame
// encoded once, this rung also pays the client's request framing.
func BenchmarkClientPut(b *testing.B) {
	const payloadLen = 64 << 10
	payload := make([]byte, payloadLen)
	for i := range payload {
		payload[i] = byte(i)
	}
	key := ckpt.SegmentKey(0, 1)
	for _, path := range []struct {
		name   string
		budget uint64 // in-flight budget; 0 = the default, which never sheds here
	}{
		{name: "sync"},
		{name: "shed", budget: payloadLen / 2},
	} {
		b.Run(path.name, func(b *testing.B) {
			svc, eng, _ := newTestService(b, func(c *Config) { c.InFlightBudget = path.budget })
			defer svc.Close()
			c := svc.Client(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				err := c.Put(key, payload)
				if shed := path.budget > 0; shed != storage.IsTransient(err) || (!shed && err != nil) {
					b.Fatalf("%s put: %v", path.name, err)
				}
				// Close the batch window and retire the in-flight bytes so
				// every put meets an idle service; the engine's tickers
				// allocate nothing.
				eng.Run(eng.Now() + des.Second)
			}
		})
	}
}
