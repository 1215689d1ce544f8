package mpi

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/des"
	"repro/internal/mem"
)

func TestCollectiveDeliveryHook(t *testing.T) {
	eng, w := testWorld(t, 2, Bounce)
	var seen uint64
	w.Rank(1).SetDeliveryHook(func(b uint64, _ des.Time) { seen += b })
	w.Rank(0).AllReduce(512, 0, nil)
	w.Rank(1).AllReduce(512, 0, nil)
	eng.Run(des.MaxTime)
	if seen != 512 { // one recursive-doubling step in a 2-rank world
		t.Fatalf("hook saw %d bytes", seen)
	}
}

// Property: messages between a fixed (src, dst, tag) pair are delivered
// in send order — the MPI non-overtaking guarantee our fixed-latency
// link preserves.
func TestPropertyNonOvertaking(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 121))
		eng := des.NewEngine()
		spaces := []*mem.AddressSpace{
			mem.NewAddressSpace(mem.Config{PageSize: 4096, Phantom: true}),
			mem.NewAddressSpace(mem.Config{PageSize: 4096, Phantom: true}),
		}
		w, err := NewWorld(eng, QsNet(), Direct, spaces)
		if err != nil {
			return false
		}
		count := int(n%20) + 2
		var got []uint64
		for i := 0; i < count; i++ {
			w.Rank(1).Recv(0, 5, 0, func(m Message) { got = append(got, m.Bytes) })
		}
		// Sends injected at increasing times with equal sizes carry
		// their sequence number as the (distinguishable) size.
		for i := 0; i < count; i++ {
			i := i
			at := des.Time(i*10+rng.IntN(5)) * des.Millisecond
			eng.Schedule(at, func() {
				w.Rank(0).Send(1, 5, uint64(i+1), nil)
			})
		}
		eng.Run(des.MaxTime)
		if len(got) != count {
			return false
		}
		for i := range got {
			if got[i] != uint64(i+1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Edge worlds: single-rank and non-power-of-two sizes, in both delivery
// modes, on clean and lossy fabrics. Collectives must complete, deliver
// the right volumes, and keep every rank's completion simultaneous.
func TestCollectivesEdgeWorlds(t *testing.T) {
	for _, n := range []int{1, 3, 5} {
		for _, mode := range []DeliveryMode{Bounce, Direct} {
			for _, lossy := range []bool{false, true} {
				name := map[DeliveryMode]string{Bounce: "bounce", Direct: "direct"}[mode]
				t.Run(fmt.Sprintf("n=%d/%s/lossy=%v", n, name, lossy), func(t *testing.T) {
					eng, w := testWorld(t, n, mode)
					if lossy {
						if err := w.SetFaults(NetFaultConfig{Seed: 4, DropRate: 0.25, DupRate: 0.1}); err != nil {
							t.Fatal(err)
						}
					}
					var times []des.Time
					for i := 0; i < n; i++ {
						w.Rank(i).AllReduce(2048, 0, func() { times = append(times, eng.Now()) })
					}
					eng.Run(des.MaxTime)
					if len(times) != n {
						t.Fatalf("allreduce completed on %d/%d ranks", len(times), n)
					}
					for _, at := range times {
						if at != times[0] {
							t.Fatalf("ranks completed at different times: %v", times)
						}
					}
					exp := uint64(2048 * logTwo(n))
					for i := 0; i < n; i++ {
						if got := w.Rank(i).Stats().BytesReceived; got != exp {
							t.Fatalf("rank %d received %d, want %d", i, got, exp)
						}
					}

				})
			}
		}
	}
}

// An AllReduce round allocates nothing once every rank has made one: the
// continuations are bound to the rank, not made per call.
func TestAllReduceRoundAllocFree(t *testing.T) {
	eng, w := testWorld(t, 4, Bounce)
	done := 0
	fn := func() { done++ }
	round := func() {
		for i := 0; i < 4; i++ {
			w.Rank(i).AllReduce(8, 0, fn)
		}
		eng.Run(des.MaxTime)
	}
	round()
	if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
		t.Fatalf("an AllReduce round allocates %v times", allocs)
	}
	if done != 4*52 {
		t.Fatalf("%d continuations ran, want %d", done, 4*52)
	}
}

// A Barrier round allocates nothing once the world has released one
// generation: the release is one event with a callback bound to the
// world, over a kept list of continuations.
func TestBarrierRoundAllocFree(t *testing.T) {
	eng, w := testWorld(t, 4, Bounce)
	done := 0
	fn := func() { done++ }
	round := func() {
		for i := 0; i < 4; i++ {
			w.Rank(i).Barrier(fn)
		}
		eng.Run(des.MaxTime)
	}
	round()
	if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
		t.Fatalf("a Barrier round allocates %v times", allocs)
	}
	if done != 4*52 {
		t.Fatalf("%d continuations ran, want %d", done, 4*52)
	}
}

// TestCollectiveSameInstantOrder pins how a collective's continuations
// interleave with other events at their instant, for Barrier (the
// release) and AllReduce (the completion): an event queued at that
// instant before the last arrival runs before every continuation, the
// continuations run in arrival order, and an event a continuation
// queues at Now() runs after every continuation of its generation.
func TestCollectiveSameInstantOrder(t *testing.T) {
	const n, bytes = 4, 4096
	for _, allReduce := range []bool{false, true} {
		eng, w := testWorld(t, n, Bounce)
		at := w.net.Latency * des.Time(logTwo(n))
		if allReduce {
			at += w.collectiveXfer(des.Time(logTwo(n)), bytes, at)
		}
		var order []string
		arrive := func(rank int) {
			fn := func() {
				if eng.Now() != at {
					t.Errorf("allreduce %v: rank %d's continuation ran at %v, want %v", allReduce, rank, eng.Now(), at)
				}
				order = append(order, fmt.Sprint("c", rank))
				eng.Schedule(eng.Now(), func() { order = append(order, fmt.Sprint("q", rank)) })
			}
			if allReduce {
				w.Rank(rank).AllReduce(bytes, 0, fn)
			} else {
				w.Rank(rank).Barrier(fn)
			}
		}
		for _, rank := range []int{2, 0, 3} {
			arrive(rank)
		}
		eng.Schedule(at, func() { order = append(order, "early") })
		arrive(1)
		eng.Run(des.MaxTime)
		want := "[early c2 c0 c3 c1 q2 q0 q3 q1]"
		if got := fmt.Sprint(order); got != want {
			t.Fatalf("allreduce %v: events ran as %s, want %s", allReduce, got, want)
		}
	}
}

// Barrier generations may overlap: when every rank calls Barrier again
// before the last generation's release, the two generations release in
// order, each at its own instant, each running its own continuations.
func TestBarrierGenerationsOverlap(t *testing.T) {
	eng, w := testWorld(t, 2, Bounce)
	var order []string
	for gen := 1; gen <= 2; gen++ {
		for rank := 0; rank < 2; rank++ {
			w.Rank(rank).Barrier(func() { order = append(order, fmt.Sprintf("g%d r%d at %v", gen, rank, eng.Now())) })
		}
	}
	eng.Run(des.MaxTime)
	at := w.net.Latency
	want := fmt.Sprint([]string{"g1 r0 at " + at.String(), "g1 r1 at " + at.String(), "g2 r0 at " + at.String(), "g2 r1 at " + at.String()})
	if got := fmt.Sprint(order); got != want {
		t.Fatalf("continuations ran as %s, want %s", got, want)
	}
}

// A rank that calls AllReduce again before its last call completed keeps
// each call on its own arguments: both continuations run, in order, and
// each call's bytes are received.
func TestAllReduceOverlappingCalls(t *testing.T) {
	eng, w := testWorld(t, 2, Bounce)
	var order []int
	// Rank 0's two calls are the two arrivals of one barrier generation.
	w.Rank(0).AllReduce(100, 0, func() { order = append(order, 1) })
	w.Rank(0).AllReduce(1000, 0, func() { order = append(order, 2) })
	eng.Run(des.MaxTime)
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("continuations ran as %v, want [1 2]", order)
	}
	if got := w.Rank(0).Stats().BytesReceived; got != 1100 {
		t.Fatalf("rank 0 received %d bytes, want 1100", got)
	}
	// The rank's bound continuations are free again.
	w.Rank(0).AllReduce(7, 0, func() { order = append(order, 3) })
	w.Rank(1).AllReduce(7, 0, nil)
	eng.Run(des.MaxTime)
	if len(order) != 3 || w.Rank(0).Stats().BytesReceived != 1107 {
		t.Fatalf("third call: order %v, %d bytes", order, w.Rank(0).Stats().BytesReceived)
	}
}

// Single-rank collectives are free: no steps, no transfer, release after
// zero dissemination rounds.
func TestSingleRankCollectiveTiming(t *testing.T) {
	eng, w := testWorld(t, 1, Direct)
	var at des.Time = -1
	w.Rank(0).AllReduce(1<<20, 0, func() { at = eng.Now() })
	eng.Run(des.MaxTime)
	if at != 0 {
		t.Fatalf("single-rank allreduce completed at %v, want 0", at)
	}
}

// Point-to-point retransmission works at the same edges: every plain
// send in a 3- and 5-rank lossy ring arrives exactly once in both modes.
func TestRetransmitEdgeWorlds(t *testing.T) {
	for _, n := range []int{3, 5} {
		for _, mode := range []DeliveryMode{Bounce, Direct} {
			eng, w := testWorld(t, n, mode)
			if err := w.SetFaults(NetFaultConfig{Seed: 8, DropRate: 0.35, DupRate: 0.2}); err != nil {
				t.Fatal(err)
			}
			got := make([]int, n)
			for r := 0; r < n; r++ {
				dst := (r + 1) % n
				d := dst
				w.Rank(dst).Recv(r, 60, 0, func(m Message) { got[d]++ })
				w.Rank(r).Send(dst, 60, 9000, nil)
			}
			eng.Run(des.MaxTime)
			for r, c := range got {
				if c != 1 {
					t.Fatalf("n=%d mode=%v: rank %d received %d copies", n, mode, r, c)
				}
			}
			if w.faultStats().Retransmits == 0 {
				t.Fatalf("n=%d mode=%v: no retransmits at 35%% loss", n, mode)
			}
		}
	}
}
