package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/des"
	"repro/internal/storage"
)

// decayDriver compiles text into a driver on a fresh engine.
func decayDriver(t *testing.T, text string) *Driver {
	t.Helper()
	p, err := mustParse(t, text).Compile(1)
	if err != nil {
		t.Fatal(err)
	}
	return NewDriver(des.NewEngine(), p)
}

// A decay line's faults are a pure function of its seed and the
// operation sequence: two identical runs inject identically, op for op.
func TestDecayDeterminism(t *testing.T) {
	run := func() ([]string, StoreStats) {
		d := decayDriver(t, "storage-decay transient 0.2 torn 0.1 corrupt 0.1 seed 42")
		s := d.WrapStore(storage.NewMemStore())
		var log []string
		for i := 0; i < 200; i++ {
			key := "k" + string(rune('a'+i%7))
			if err := s.Put(key, bytes.Repeat([]byte{byte(i)}, 64)); err != nil {
				log = append(log, "put:"+err.Error())
			}
			if d, err := s.Get(key); err != nil {
				log = append(log, "get:"+err.Error())
			} else {
				log = append(log, string(d[:1]))
			}
		}
		return log, d.StoreStats(0)
	}
	log1, st1 := run()
	log2, st2 := run()
	if st1 != st2 {
		t.Fatalf("stats diverge across identical runs: %+v vs %+v", st1, st2)
	}
	for i := range log1 {
		if log1[i] != log2[i] {
			t.Fatalf("op %d diverges: %q vs %q", i, log1[i], log2[i])
		}
	}
	if st1.Transients == 0 || st1.TornWrites == 0 || st1.Corruptions == 0 {
		t.Fatalf("decay injected nothing: %+v", st1)
	}
}

// die-after n: the store serves n operations, then refuses every call —
// metadata reads included — with ErrUnavailable.
func TestDecayDieAfter(t *testing.T) {
	d := decayDriver(t, "storage-decay die-after 3")
	s := d.WrapStore(storage.NewMemStore())
	for i := 0; i < 3; i++ {
		if err := s.Put("k", []byte("x")); err != nil {
			t.Fatalf("op %d before outage: %v", i, err)
		}
	}
	if err := s.Put("k", []byte("x")); !errors.Is(err, storage.ErrUnavailable) {
		t.Fatalf("post-outage Put err = %v, want ErrUnavailable", err)
	}
	if _, err := s.Get("k"); !errors.Is(err, storage.ErrUnavailable) {
		t.Fatalf("post-outage Get err = %v, want ErrUnavailable", err)
	}
	if _, err := s.Keys(); !errors.Is(err, storage.ErrUnavailable) {
		t.Fatalf("post-outage Keys err = %v, want ErrUnavailable", err)
	}
	if st := d.StoreStats(0); st.Ops != 6 || st.Unavailable != 3 {
		t.Fatalf("stats %+v, want 6 ops of which 3 refused", st)
	}
}

// Integrity inside decay order: seal, then tear. The envelope must
// catch every torn write on read-back.
func TestDecayTornWriteCaughtByEnvelope(t *testing.T) {
	d := decayDriver(t, "storage-decay torn 1 seed 9")
	s := storage.NewIntegrityStore(d.WrapStore(storage.NewMemStore()))
	if err := s.Put("k", []byte("will be torn")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("k"); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("torn write read back as %v, want ErrCorrupt", err)
	}
}

// A torn write forwards a prefix with its capacity clipped. Without the
// clip, the IntegrityStore below the decay would seal the prefix in
// place, writing its envelope over payload bytes the second replica
// keeps — and that replica's CRC, computed after, would vouch for the
// damage.
func TestDecayTornWriteClipsCapacity(t *testing.T) {
	d := decayDriver(t, "storage-decay torn 1 seed 5")
	torn := d.WrapStore(storage.NewIntegrityStore(storage.NewMemStore()))
	intact := storage.NewMemStore()
	m, err := storage.NewMirrorStore(torn, storage.NewIntegrityStore(intact))
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte("0123456789abcdef"), 16)
	sealable := append(make([]byte, 0, len(want)+storage.SealRoom), want...)
	if err := m.PutOwned("k", sealable); err != nil {
		t.Fatal(err)
	}
	if st := d.StoreStats(0); st.TornWrites != 1 {
		t.Fatalf("stats %+v: the write was not torn", st)
	}
	frame, err := intact.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := storage.Open(frame); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("replica 1 opens to %q… (err %v), want the original bytes", got[:min(len(got), 16)], err)
	}
}

// A decay line strikes only the store it names, and the timed lines
// only store 0: the i-th WrapStore call makes store i.
func TestDecayStrikesItsStore(t *testing.T) {
	d := decayDriver(t, "storage-outage at 1s..2s\nstorage-decay die-after 1 store 1")
	s0, s1 := d.WrapStore(storage.NewMemStore()), d.WrapStore(storage.NewMemStore())
	for i := 0; i < 3; i++ {
		if err := s0.Put("k", nil); err != nil {
			t.Fatalf("store 0 put %d: %v", i, err)
		}
	}
	if err := s1.Put("k", nil); err != nil {
		t.Fatalf("store 1's first op: %v", err)
	}
	if err := s1.Put("k", nil); !errors.Is(err, storage.ErrUnavailable) {
		t.Fatalf("store 1 past die-after: %v", err)
	}
	var outage [2]error
	d.eng.Schedule(1500*des.Millisecond, func() {
		_, outage[0] = s0.Keys()
		_, outage[1] = s1.Keys()
	})
	d.eng.Run(des.MaxTime)
	if !errors.Is(outage[0], storage.ErrUnavailable) || !errors.Is(outage[1], storage.ErrUnavailable) {
		t.Fatalf("in the outage: store 0 %v, store 1 %v", outage[0], outage[1])
	}
	if st0, st1 := d.StoreStats(0), d.StoreStats(1); st0.Ops != 3 || st0.Unavailable != 0 || st1.Ops != 3 || st1.Unavailable != 2 {
		t.Fatalf("store stats %+v / %+v", st0, st1)
	}
	if d.Stats().OutageRefusals != 1 {
		t.Fatalf("outage refusals %d, want only store 0's", d.Stats().OutageRefusals)
	}
}

// A decay line draws from its own stream, never the driver's: a
// brownout on the same store drops the same operations with and
// without it.
func TestDecayDrawsItsOwnStream(t *testing.T) {
	drops := func(text string) string {
		d := decayDriver(t, text)
		s := d.WrapStore(storage.NewMemStore())
		var b bytes.Buffer
		for i := 0; i < 200; i++ {
			before := d.Stats().BrownoutDrops
			s.Put("k", []byte("v"))
			fmt.Fprint(&b, d.Stats().BrownoutDrops-before)
		}
		return b.String()
	}
	const brownout = "storage-brownout at 0s..1h rate 0.5"
	plain, decayed := drops(brownout), drops(brownout+"\nstorage-decay transient 0.5 torn 0.3 corrupt 0.3 seed 3")
	if plain != decayed {
		t.Fatalf("decay moved the brownout's draws:\n%s\n%s", plain, decayed)
	}
}
