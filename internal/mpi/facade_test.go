package mpi

import (
	"slices"
	"testing"

	"repro/internal/des"
	"repro/internal/mem"
)

// TestOneEngineFacade pins the names the sharded engine left behind:
// des.Group, Engine.PostTo and NewShardedWorld are each one engine.
func TestOneEngineFacade(t *testing.T) {
	g := des.NewGroup(4)
	g.DeclareLookahead(des.Microsecond)
	eng := g.Control()
	for i := 0; i < g.Shards(); i++ {
		if g.Shard(i) != eng {
			t.Fatalf("Shard(%d) is not Control()", i)
		}
	}
	// PostTo schedules on its destination: firings keep (time, schedule) order.
	var order []int
	mark := func(id int) func() { return func() { order = append(order, id) } }
	eng.PostTo(g.Shard(1), 2*des.Microsecond, mark(0))
	g.Shard(2).PostTo(eng, des.Microsecond, mark(1))
	eng.Schedule(2*des.Microsecond, mark(2))
	g.Shard(3).PostTo(g.Shard(0), des.Microsecond, mark(3))
	eng.Run(des.MaxTime)
	if want := []int{1, 3, 0, 2}; !slices.Equal(order, want) {
		t.Fatalf("PostTo fired %v, want %v", order, want)
	}
	if g.CriticalPathEvents() != eng.Fired() || eng.Fired() != 4 {
		t.Fatalf("CriticalPathEvents %d, Fired %d; want both 4", g.CriticalPathEvents(), eng.Fired())
	}

	// NewShardedWorld over one engine is NewWorld.
	const ranks = 8
	phantom := func(n int) []*mem.AddressSpace {
		spaces := make([]*mem.AddressSpace, n)
		for i := range spaces {
			spaces[i] = mem.NewAddressSpace(mem.Config{Phantom: true})
		}
		return spaces
	}
	seqEng, seqW := phantomWorld(t, ranks, Bounce)
	g = des.NewGroup(3)
	engs := make([]*des.Engine, ranks)
	for i := range engs {
		engs[i] = g.Shard(i % g.Shards())
	}
	w, err := NewShardedWorld(engs, QsNet(), Bounce, phantom(ranks))
	if err != nil {
		t.Fatal(err)
	}
	seq, one := newRing(t, seqEng.Run, seqW), newRing(t, g.Control().Run, w)
	for i := 0; i < 3; i++ {
		seq.round()
		one.round()
	}
	for i := 0; i < ranks; i++ {
		if a, b := seqW.Rank(i).Stats(), w.Rank(i).Stats(); a != b || a.Recvs == 0 {
			t.Fatalf("rank %d: NewWorld counters %+v, NewShardedWorld %+v", i, a, b)
		}
	}
	if seqEng.Fired() != g.Control().Fired() || seqEng.Now() != g.Control().Now() {
		t.Fatalf("NewWorld fired %d by %v, NewShardedWorld %d by %v", seqEng.Fired(), seqEng.Now(), g.Control().Fired(), g.Control().Now())
	}

	two := []*des.Engine{des.NewEngine(), des.NewEngine()}
	if _, err := NewShardedWorld(two, QsNet(), Bounce, phantom(2)); err == nil {
		t.Fatal("NewShardedWorld accepted two distinct engines")
	}
}
