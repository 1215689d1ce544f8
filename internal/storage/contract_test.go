package storage_test

import (
	"bytes"
	"hash/crc32"
	"math/rand/v2"
	"testing"

	"repro/internal/chaos"
	"repro/internal/ckpt"
	"repro/internal/ckptstore"
	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/redundancy"
	"repro/internal/storage"
)

// sealable returns a copy of data with the envelope's room spare, as a
// checkpoint writer gives a segment away.
func sealable(data []byte) []byte {
	return append(make([]byte, 0, len(data)+storage.SealRoom), data...)
}

// contractKey is a segment key, so the tiered RecoveryView serves it
// from rank 1's L1 like any other store serves it from its own map.
var contractKey = ckpt.SegmentKey(1, 3)

// contractValue is an encoded segment (the view only trusts an L1 copy
// that decodes) whose one page is filled with b.
func contractValue(b byte) []byte {
	seg := &ckpt.Segment{Rank: 1, Seq: 3, Epoch: 3, PageSize: 64,
		Pages: []ckpt.PageRecord{{Addr: 0, Data: bytes.Repeat([]byte{b}, 64)}}}
	return seg.Encode()
}

// contractCase is one in-repo Store under the Store contract. Reads go
// through get; writes go through put, which is get itself unless get is
// a read-only view over it. settle, when set, lets virtual time pass
// after a write, so a later write of the same key is not coalesced.
type contractCase struct {
	name     string
	get, put storage.Store
	settle   func()
}

func contractCases(t *testing.T) []contractCase {
	t.Helper()
	file, err := storage.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Decay that strikes only past the suite's operations: the rows
	// exercise the decay wrapper's pass-through paths.
	decay := decayDriver(t, "storage-decay die-after 1000000000 seed 1 store 0\nstorage-decay die-after 1000000000 seed 1 store 1")
	mirror, err := storage.NewMirrorStore(
		storage.NewResilientStore(storage.NewIntegrityStore(storage.NewMemStore()), storage.RetryPolicy{}),
		storage.NewResilientStore(storage.NewIntegrityStore(decay.WrapStore(storage.NewMemStore())), storage.RetryPolicy{}),
	)
	if err != nil {
		t.Fatal(err)
	}
	h := contractHierarchy(t)
	eng := des.NewEngine()
	svc, err := ckptstore.New(ckptstore.Config{
		Engine:   eng,
		Replicas: []storage.Store{storage.NewMemStore(), storage.NewMemStore(), storage.NewMemStore()},
	})
	if err != nil {
		t.Fatal(err)
	}
	client := svc.Client(0)
	settle := func() { eng.Run(eng.Now() + des.Second) }
	timed := chaos.NewDriver(des.NewEngine(), &chaos.Plan{}).WrapStore(storage.NewMemStore())
	return []contractCase{
		{name: "mem", get: storage.NewMemStore()},
		{name: "file", get: file},
		{name: "integrity(mem)", get: storage.NewIntegrityStore(storage.NewMemStore())},
		{name: "resilient(mem)", get: storage.NewResilientStore(storage.NewMemStore(), storage.RetryPolicy{})},
		{name: "faulty(mem)", get: decay.WrapStore(storage.NewMemStore())},
		{name: "mirror stack", get: mirror},
		{name: "chaos timed(mem)", get: timed},
		{name: "rank store", get: h.RankStore(1)},
		{name: "recovery view", get: h.NewView(), put: h.RankStore(1)},
		{name: "ckptstore client", get: client, settle: settle},
		{name: "ckptstore service view", get: svc.View(), put: client, settle: settle},
	}
}

// decayDriver compiles a schedule of storage-decay lines into a
// driver on a fresh engine: its i-th WrapStore call makes store i.
func decayDriver(t testing.TB, text string) *chaos.Driver {
	t.Helper()
	sched, err := chaos.ParseSchedule(text)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sched.Compile(1)
	if err != nil {
		t.Fatal(err)
	}
	return chaos.NewDriver(des.NewEngine(), plan)
}

// contractHierarchy is an XOR 2+1 hierarchy over four single-rank
// domains whose L1 and L3 stores are MemStores.
func contractHierarchy(t *testing.T) *redundancy.Hierarchy {
	t.Helper()
	dm, err := cluster.NewDomainMap(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	h, err := redundancy.NewHierarchy(redundancy.Config{
		Scheme:      redundancy.Scheme{Kind: redundancy.XOR, K: 2, M: 1},
		Domains:     dm,
		Global:      storage.NewMemStore(),
		GlobalEvery: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// writer returns the store tc writes through and its settle step.
func (tc contractCase) writer() (storage.Store, func()) {
	put, settle := tc.put, tc.settle
	if put == nil {
		put = tc.get
	}
	if settle == nil {
		settle = func() {}
	}
	return put, settle
}

// TestStoreBufferOwnership pins the rules in the Store and OwnedPutter
// doc comments on every in-repo Store: Put borrows the caller's buffer,
// a Get result stays intact across a later Put and Delete of its key,
// and a buffer given away with PutOwned is frozen — two stores of the
// kind, given the one buffer directly and then through a 2-replica
// mirror, never write its bytes and read back the same value.
func TestStoreBufferOwnership(t *testing.T) {
	twins := contractCases(t)
	for i, tc := range contractCases(t) {
		t.Run(tc.name+"/frozen shared", func(t *testing.T) {
			putA, settleA := tc.writer()
			putB, settleB := twins[i].writer()
			readBack := func(buf []byte, sum uint32) {
				t.Helper()
				settleA()
				settleB()
				if crc32.ChecksumIEEE(buf) != sum {
					t.Fatal("a store wrote into the bytes of a buffer it was given")
				}
				a, errA := tc.get.Get(contractKey)
				b, errB := twins[i].get.Get(contractKey)
				if errA != nil || errB != nil || !bytes.Equal(a, buf) || !bytes.Equal(b, buf) {
					t.Fatalf("the two stores read back %v/%v, equal to the given bytes %v/%v",
						errA, errB, bytes.Equal(a, buf), bytes.Equal(b, buf))
				}
			}
			buf := sealable(contractValue(0xA5))
			sum := crc32.ChecksumIEEE(buf)
			for _, put := range []storage.Store{putA, putB} {
				if err := storage.PutOwned(put, contractKey, buf); err != nil {
					t.Fatal(err)
				}
			}
			readBack(buf, sum)

			mirror, err := storage.NewMirrorStore(putA, putB)
			if err != nil {
				t.Fatal(err)
			}
			next := sealable(contractValue(0x5A))
			nextSum := crc32.ChecksumIEEE(next)
			if err := mirror.PutOwned(contractKey, next); err != nil {
				t.Fatal(err)
			}
			readBack(next, nextSum)
			if crc32.ChecksumIEEE(buf) != sum {
				t.Fatal("a rewrite wrote into the bytes of the buffer given before")
			}
		})
	}
	for _, tc := range contractCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			put, settle := tc.writer()
			want, next := contractValue(0xA5), contractValue(0x5A)
			buf := bytes.Clone(want)
			if err := put.Put(contractKey, buf); err != nil {
				t.Fatal(err)
			}
			settle()
			for i := range buf {
				buf[i] = 0xEE
			}
			lent, err := tc.get.Get(contractKey)
			if err != nil || !bytes.Equal(lent, want) {
				t.Fatalf("Get after the caller reused its Put buffer: %v, equal %v", err, bytes.Equal(lent, want))
			}
			if err := put.Put(contractKey, next); err != nil {
				t.Fatal(err)
			}
			settle()
			if got, err := tc.get.Get(contractKey); err != nil || !bytes.Equal(got, next) {
				t.Fatalf("Get after a rewrite: %v, equal %v", err, bytes.Equal(got, next))
			}
			if !bytes.Equal(lent, want) {
				t.Fatal("a later Put of the key changed an earlier Get result")
			}
			if err := put.Delete(contractKey); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(lent, want) {
				t.Fatal("a later Delete of the key changed an earlier Get result")
			}
		})
	}
}

// TestBitFlipsLeaveLentBuffersIntact: every fault injector that corrupts
// a stored value — a storage-decay line's corrupt rate, chaos.Driver's
// bit flips and Hierarchy.CorruptParity — replaces it with a flipped copy,
// so a buffer Get lent before the flip still holds the bytes it held.
func TestBitFlipsLeaveLentBuffersIntact(t *testing.T) {
	want := contractValue(0xA5)
	check := func(t *testing.T, under storage.Store, key string, lent, before []byte) {
		t.Helper()
		if !bytes.Equal(lent, before) {
			t.Fatal("the flip wrote into a buffer Get had lent")
		}
		if now, err := under.Get(key); err != nil || bytes.Equal(now, before) {
			t.Fatalf("the stored value was not flipped (err %v)", err)
		}
	}

	t.Run("faulty CorruptRate", func(t *testing.T) {
		// A mirror repair Puts a value another replica lent.
		mem := storage.NewMemStore()
		if err := mem.Put(contractKey, want); err != nil {
			t.Fatal(err)
		}
		lent, err := mem.Get(contractKey)
		if err != nil {
			t.Fatal(err)
		}
		d := decayDriver(t, "storage-decay corrupt 1 seed 3")
		if err := d.WrapStore(mem).Put(contractKey, lent); err != nil || d.StoreStats(0).Corruptions != 1 {
			t.Fatalf("put: %v, stats %+v", err, d.StoreStats(0))
		}
		check(t, mem, contractKey, lent, want)
	})

	t.Run("chaos bitflip", func(t *testing.T) {
		eng := des.NewEngine()
		d := chaos.NewDriver(eng, &chaos.Plan{Seed: 3, BitFlips: []des.Time{des.Second}})
		mem := storage.NewMemStore()
		top := d.WrapStore(mem)
		if err := top.Put(contractKey, want); err != nil {
			t.Fatal(err)
		}
		lent, err := top.Get(contractKey)
		if err != nil {
			t.Fatal(err)
		}
		eng.Run(2 * des.Second)
		if d.Stats().BitFlips != 1 {
			t.Fatalf("stats %+v", d.Stats())
		}
		check(t, mem, contractKey, lent, want)
	})

	t.Run("CorruptParity", func(t *testing.T) {
		h := contractHierarchy(t)
		for r := 0; r < h.Ranks(); r++ {
			if err := h.Local(r).Put(ckpt.SegmentKey(r, 0), contractValue(byte(r))); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := h.EncodeLine(0); err != nil {
			t.Fatal(err)
		}
		g := h.Groups()[0]
		partner, key := h.Local(g.Partners[0]), redundancy.ParityKey(g.ID, 0, h.Scheme().K)
		lent, err := partner.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		frame := bytes.Clone(lent)
		if got, ok := h.CorruptParity(0, rand.New(rand.NewPCG(3, 3))); !ok || got != key {
			t.Fatalf("CorruptParity hit %q (%v), want %q", got, ok, key)
		}
		check(t, partner, key, lent, frame)
	})
}
