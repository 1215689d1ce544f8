package mpi

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/des"
	"repro/internal/mem"
)

// shardedWorld builds an n-rank world over a des.Group with the given
// shard count, mapping rank i onto shard i%shards.
func shardedWorld(t *testing.T, n, shards int, mode DeliveryMode) (*des.Group, *World) {
	t.Helper()
	g := des.NewGroup(shards)
	engs := make([]*des.Engine, n)
	spaces := make([]*mem.AddressSpace, n)
	for i := range spaces {
		engs[i] = g.Shard(i % shards)
		spaces[i] = mem.NewAddressSpace(mem.Config{PageSize: 4096})
	}
	w, err := NewShardedWorld(engs, QsNet(), mode, spaces)
	if err != nil {
		t.Fatal(err)
	}
	return g, w
}

// timeline is the full virtual-time observable of a run: per-rank
// delivery instants plus barrier-release instants, in occurrence order.
type timeline struct {
	deliveries [][]des.Time
	barriers   [][]des.Time
	received   []uint64
}

func (tl *timeline) equal(o *timeline) bool {
	return fmt.Sprintf("%+v", tl) == fmt.Sprintf("%+v", o)
}

// runPingRing drives a deterministic all-ranks-active workload on w:
// every rank sends msgs tagged messages to its right neighbour, re-posts
// receives, and joins rounds global barriers, recording every virtual
// instant observed.
func runPingRing(run func(des.Time) uint64, w *World, msgs, rounds int) *timeline {
	n := w.Size()
	tl := &timeline{
		deliveries: make([][]des.Time, n),
		barriers:   make([][]des.Time, n),
		received:   make([]uint64, n),
	}
	for i := 0; i < n; i++ {
		i := i
		r := w.Rank(i)
		for k := 0; k < msgs; k++ {
			r.Recv(AnySource, k, 0, func(m Message) {
				tl.deliveries[i] = append(tl.deliveries[i], m.DeliveredAt)
				tl.received[i] += m.Bytes
			})
			r.Send((i+1)%n, k, uint64(1000+100*k+i), nil)
		}
	}
	var round func(r *Rank, i, left int)
	round = func(r *Rank, i, left int) {
		r.Barrier(func() {
			tl.barriers[i] = append(tl.barriers[i], w.engFor(i).Now())
			if left > 1 {
				round(r, i, left-1)
			}
		})
	}
	for i := 0; i < n; i++ {
		round(w.Rank(i), i, rounds)
	}
	run(des.MaxTime)
	return tl
}

// TestShardedWorldValidation pins the constructor's contract checks.
func TestShardedWorldValidation(t *testing.T) {
	g := des.NewGroup(2)
	spaces := []*mem.AddressSpace{mem.NewAddressSpace(mem.Config{PageSize: 4096})}
	if _, err := NewShardedWorld([]*des.Engine{g.Shard(0), g.Shard(1)}, QsNet(), Direct, spaces); err == nil {
		t.Fatal("engine/space length mismatch accepted")
	}
	net := QsNet()
	net.Latency = 0
	if _, err := NewShardedWorld([]*des.Engine{g.Shard(0)}, net, Direct, spaces); err == nil {
		t.Fatal("zero-latency network accepted for sharded world")
	}
}

// TestShardedLookaheadDeclared checks NewShardedWorld registers the link
// latency as the group's epoch lookahead.
func TestShardedLookaheadDeclared(t *testing.T) {
	g, _ := shardedWorld(t, 4, 2, Direct)
	if got := g.Lookahead(); got != QsNet().Latency {
		t.Fatalf("lookahead = %v, want %v", got, QsNet().Latency)
	}
}

// TestShardedMatchesSequential: with a clean network the sharded world
// must reproduce the sequential world's virtual timeline bit-for-bit at
// every shard count.
func TestShardedMatchesSequential(t *testing.T) {
	const ranks, msgs, rounds = 8, 12, 5
	seqEng, seqW := testWorld(t, ranks, Direct)
	ref := runPingRing(seqEng.Run, seqW, msgs, rounds)
	for _, shards := range []int{1, 2, 3, 8} {
		g, w := shardedWorld(t, ranks, shards, Direct)
		got := runPingRing(g.Control().Run, w, msgs, rounds)
		if !got.equal(ref) {
			t.Fatalf("shards=%d timeline diverged from sequential", shards)
		}
	}
}

// TestShardedChaosDeterministic: under an installed fault model the
// virtual timeline must be identical across shard counts and GOMAXPROCS
// settings (per-source fault streams make the schedule independent of
// shard placement and host parallelism).
func TestShardedChaosDeterministic(t *testing.T) {
	const ranks, msgs, rounds = 8, 12, 5
	cfg := NetFaultConfig{Seed: 11, DropRate: 0.3, DupRate: 0.2, JitterMax: 5 * des.Microsecond}
	run := func(shards, procs int) *timeline {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		g, w := shardedWorld(t, ranks, shards, Direct)
		if err := w.SetFaults(cfg); err != nil {
			t.Fatal(err)
		}
		return runPingRing(g.Control().Run, w, msgs, rounds)
	}
	ref := run(1, runtime.NumCPU())
	for _, shards := range []int{2, 3, 8} {
		if !run(shards, runtime.NumCPU()).equal(ref) {
			t.Fatalf("shards=%d chaos timeline diverged", shards)
		}
	}
	if !run(8, 1).equal(ref) {
		t.Fatal("GOMAXPROCS=1 chaos timeline diverged")
	}
}

// TestShardedRDMARejected: the drain/poll protocol is engine-global and
// must refuse to install on a sharded world.
func TestShardedRDMARejected(t *testing.T) {
	_, w := shardedWorld(t, 2, 2, Direct)
	if err := w.EnableRDMA(); err == nil {
		t.Fatal("EnableRDMA accepted a sharded world")
	}
}
