package ckpt

import (
	"bytes"
	"testing"

	"repro/internal/des"
	"repro/internal/mem"
	"repro/internal/storage"
)

func TestChainVolume(t *testing.T) {
	eng := des.NewEngine()
	sp := mem.NewAddressSpace(mem.Config{PageSize: pageSize})
	store := storage.NewMemStore()
	c, _ := NewCheckpointer(eng, sp, Options{Store: store, FullEvery: 3})
	r, _ := sp.Mmap(4 * pageSize)
	sp.Write(r.Start(), bytes.Repeat([]byte{1}, 4*pageSize))
	c.Start()
	r0, _ := c.Checkpoint() // seq 0: full
	sp.Write(r.Start(), bytes.Repeat([]byte{2}, pageSize))
	r1, _ := c.Checkpoint() // seq 1: delta
	sp.Write(r.Start()+pageSize, bytes.Repeat([]byte{3}, pageSize))
	r2, _ := c.Checkpoint() // seq 2: delta

	vol, err := ChainVolume(store, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if vol != r0.Bytes+r1.Bytes+r2.Bytes {
		t.Fatalf("chain volume = %d, want %d", vol, r0.Bytes+r1.Bytes+r2.Bytes)
	}
	// Restoring to seq 1 reads only the first two segments.
	vol1, _ := ChainVolume(store, 0, 1)
	if vol1 != r0.Bytes+r1.Bytes {
		t.Fatalf("chain volume to 1 = %d", vol1)
	}
	// A new epoch resets the chain base.
	sp.Write(r.Start(), bytes.Repeat([]byte{4}, pageSize))
	r3, _ := c.Checkpoint() // seq 3: full (FullEvery=3)
	if r3.Kind != Full {
		t.Fatalf("seq 3 kind = %v", r3.Kind)
	}
	vol3, _ := ChainVolume(store, 0, 3)
	if vol3 != r3.Bytes {
		t.Fatalf("fresh epoch volume = %d, want %d", vol3, r3.Bytes)
	}
	if _, err := ChainVolume(store, 0, 99); err == nil {
		t.Fatal("missing target accepted")
	}
}

// refuseNth is a store whose nth Put (1-based) is refused.
type refuseNth struct {
	storage.Store
	n, puts int
}

func (s *refuseNth) Put(key string, data []byte) error {
	s.puts++
	if s.puts == s.n {
		return storage.ErrUnavailable
	}
	return s.Store.Put(key, data)
}

// GlobalResult.Seq is the sequence the line's segments are stored under,
// not a count of this coordinator's lines: a respawned team starts above
// the old chain, and a refused line plus Resync skips a number.
func TestGlobalResultSeqIsTheLineSequence(t *testing.T) {
	eng := des.NewEngine()
	store := &refuseNth{Store: storage.NewMemStore(), n: 4}
	var cps []*Checkpointer
	for i := 0; i < 2; i++ {
		sp := mem.NewAddressSpace(mem.Config{PageSize: pageSize})
		sp.Mmap(pageSize)
		c, err := NewCheckpointer(eng, sp, Options{Rank: i, Store: store, StartSeq: 7})
		if err != nil {
			t.Fatal(err)
		}
		c.Start()
		cps = append(cps, c)
	}
	co, _ := NewCoordinator(eng, cps)
	line := func(want uint64) {
		t.Helper()
		g, err := co.GlobalCheckpoint()
		if err != nil {
			t.Fatal(err)
		}
		if g.Seq != want {
			t.Fatalf("GlobalResult.Seq = %d, want %d", g.Seq, want)
		}
		for i, res := range g.PerRank {
			if res.Seq != g.Seq {
				t.Fatalf("rank %d wrote seq %d under line %d", i, res.Seq, g.Seq)
			}
			if _, err := store.Get(SegmentKey(i, g.Seq)); err != nil {
				t.Fatalf("line %d: rank %d segment: %v", g.Seq, i, err)
			}
		}
	}
	line(7)
	// Line 8: rank 0 persists, rank 1 is refused.
	if _, err := co.GlobalCheckpoint(); err == nil {
		t.Fatal("refused line reported success")
	}
	if next := co.Resync(); next != 9 {
		t.Fatalf("Resync = %d, want 9 (rank 0 already consumed 8)", next)
	}
	line(9)
}
