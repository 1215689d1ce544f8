package mpi

import (
	"bytes"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/des"
	"repro/internal/mem"
)

// ring is an n-rank ring exchange with real destination buffers: in each
// round every rank posts one receive into its buffer and sends one message
// to its right neighbour. The receive continuations are made once, so a
// round allocates only what the message path itself allocates.
type ring struct {
	run  func(des.Time) uint64
	w    *World
	bufs []uint64
	cbs  []func(Message)
	got  []int
}

const ringMsgBytes = 8192

func newRing(tb testing.TB, run func(des.Time) uint64, w *World) *ring {
	tb.Helper()
	rg := &ring{run: run, w: w, got: make([]int, w.Size())}
	for i := 0; i < w.Size(); i++ {
		buf, err := w.Rank(i).Space().Mmap(4 * ringMsgBytes)
		if err != nil {
			tb.Fatal(err)
		}
		rg.bufs = append(rg.bufs, buf.Start())
		rg.cbs = append(rg.cbs, func(Message) { rg.got[i]++ })
	}
	return rg
}

func (rg *ring) round() {
	n := rg.w.Size()
	for i := 0; i < n; i++ {
		r := rg.w.Rank(i)
		r.Recv(AnySource, 0, rg.bufs[i], rg.cbs[i])
		r.Send((i+1)%n, 0, ringMsgBytes, nil)
	}
	rg.run(des.MaxTime)
}

func phantomWorld(tb testing.TB, n int, mode DeliveryMode) (*des.Engine, *World) {
	tb.Helper()
	eng := des.NewEngine()
	spaces := make([]*mem.AddressSpace, n)
	for i := range spaces {
		spaces[i] = mem.NewAddressSpace(mem.Config{Phantom: true})
	}
	w, err := NewWorld(eng, QsNet(), mode, spaces)
	if err != nil {
		tb.Fatal(err)
	}
	return eng, w
}

// TestRingExchangeAllocFree pins the message record: once every rank's free
// list and queues have warmed up, a message crosses send → deliver →
// complete → bounce copy → finish without allocating.
func TestRingExchangeAllocFree(t *testing.T) {
	const ranks = 8
	eng, w := phantomWorld(t, ranks, Bounce)
	rg := newRing(t, eng.Run, w)
	for i := 0; i < 4; i++ {
		rg.round()
	}
	if allocs := testing.AllocsPerRun(200, rg.round); allocs != 0 {
		t.Fatalf("a round of %d messages allocates %v, want 0", ranks, allocs)
	}
	for i, n := range rg.got {
		if n != rg.got[0] || n == 0 {
			t.Fatalf("rank %d completed %d receives, rank 0 %d", i, n, rg.got[0])
		}
		if st := w.Rank(i).Stats(); st.BounceCopyBytes != uint64(n)*ringMsgBytes || st.Recvs != uint64(n) {
			t.Fatalf("rank %d: %d receives but stats %+v", i, n, st)
		}
	}
}

// TestUnexpectedMatchedOutOfHeadPosition: receives posted after their
// messages arrived take the earliest arrival that matches, wherever it sits
// in the unexpected queue, and leave the rest in arrival order.
func TestUnexpectedMatchedOutOfHeadPosition(t *testing.T) {
	eng, w := testWorld(t, 3, Direct)
	// Arrival order at rank 2 follows size: (0,t1) (1,t1) (0,t2) (1,t2).
	w.Rank(0).Send(2, 1, 100, nil)
	w.Rank(1).Send(2, 1, 200, nil)
	w.Rank(0).Send(2, 2, 300, nil)
	w.Rank(1).Send(2, 2, 400, nil)
	eng.Run(des.MaxTime)

	type st struct{ src, tag int }
	var got []st
	rec := func(m Message) { got = append(got, st{m.Src, m.Tag}) }
	r2 := w.Rank(2)
	r2.Recv(1, 2, 0, rec)         // the last arrival
	r2.Recv(AnySource, 2, 0, rec) // skips the two tag-1 messages
	r2.Recv(AnySource, 1, 0, rec) // head
	r2.Recv(AnySource, 1, 0, rec) // what is left
	want := []st{{1, 2}, {0, 2}, {0, 1}, {1, 1}}
	if !slices.Equal(got, want) {
		t.Fatalf("matched %v, want %v", got, want)
	}
	if r2.arrived.len() != 0 || r2.recvQ.len() != 0 {
		t.Fatalf("queues not drained: %d unexpected, %d posted", r2.arrived.len(), r2.recvQ.len())
	}
}

// TestPostedMatchedOutOfHeadPosition: an arriving message takes the
// earliest-posted receive that matches — AnySource included — wherever it
// sits in the posted queue.
func TestPostedMatchedOutOfHeadPosition(t *testing.T) {
	eng, w := testWorld(t, 3, Direct)
	r2 := w.Rank(2)
	var got []int
	post := func(id, src, tag int) { r2.Recv(src, tag, 0, func(Message) { got = append(got, id) }) }
	post(0, 0, 9)
	post(1, AnySource, 5)
	post(2, 1, 9)
	post(3, AnySource, 9)
	post(4, AnySource, 5)
	// Sizes order the arrivals as written.
	w.Rank(1).Send(2, 9, 100, nil) // skips 0 (wrong source) and 1 (wrong tag): 2
	w.Rank(1).Send(2, 5, 200, nil) // 1, not the later 4
	w.Rank(1).Send(2, 9, 300, nil) // 0 still wants rank 0: 3
	w.Rank(0).Send(2, 9, 400, nil) // 0
	w.Rank(0).Send(2, 5, 500, nil) // 4
	eng.Run(des.MaxTime)
	if want := []int{2, 1, 3, 0, 4}; !slices.Equal(got, want) {
		t.Fatalf("completion order %v, want %v", got, want)
	}
}

// TestGatherRootPoolIsBounded: a rank that only receives must not hoard
// its peers' records. Records go back to their sender (finish), so the
// root pools none, each sender's list stays within the bound, and a second
// gather reuses the senders' records instead of allocating more.
func TestGatherRootPoolIsBounded(t *testing.T) {
	eng, w := testWorld(t, 4, Bounce)
	root := w.Rank(0)
	gather := func() {
		for k := 0; k < 3*maxFreeFlights; k++ {
			root.Recv(AnySource, 0, 0, nil)
			w.Rank(1+k%3).Send(0, 0, 64, nil)
		}
		eng.Run(des.MaxTime)
	}
	gather()
	pooled := map[*flight]bool{}
	for i := 1; i < 4; i++ {
		for _, f := range w.Rank(i).freeFlights {
			pooled[f] = true
		}
	}
	gather()
	if st := root.Stats(); st.Recvs != 6*maxFreeFlights {
		t.Fatalf("root completed %d receives", st.Recvs)
	}
	if n := len(root.freeFlights); n != 0 {
		t.Fatalf("root pooled %d of its senders' records", n)
	}
	for i := 1; i < 4; i++ {
		list := w.Rank(i).freeFlights
		if len(list) > maxFreeFlights || len(list) == 0 {
			t.Fatalf("rank %d pooled %d records, want 1..%d", i, len(list), maxFreeFlights)
		}
		for _, f := range list {
			if !pooled[f] {
				t.Fatalf("rank %d allocated a record for the second gather instead of reusing one", i)
			}
		}
	}
}

// TestDequeMatchesSliceModel drives the deque and a plain slice with the
// same random pushes and ordered removals.
func TestDequeMatchesSliceModel(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 14))
	var q deque[int]
	var model []int
	for step := 0; step < 20000; step++ {
		switch {
		case len(model) == 0 || rng.IntN(5) < 2:
			q.push(step)
			model = append(model, step)
		case rng.IntN(4) > 0: // the hot case: head
			if got := q.remove(0); got != model[0] {
				t.Fatalf("step %d: head %d, want %d", step, got, model[0])
			}
			model = model[1:]
		default:
			i := rng.IntN(len(model))
			if got := q.remove(i); got != model[i] {
				t.Fatalf("step %d: entry %d = %d, want %d", step, i, got, model[i])
			}
			model = slices.Delete(model, i, i+1)
		}
		if q.len() != len(model) {
			t.Fatalf("step %d: len %d, want %d", step, q.len(), len(model))
		}
		for i, v := range model {
			if *q.at(i) != v {
				t.Fatalf("step %d: entry %d = %d, want %d", step, i, *q.at(i), v)
			}
		}
	}
	if cap(q.buf) > 4096 {
		t.Fatalf("deque grew to %d slots for a queue that stays short", cap(q.buf))
	}
}

// BenchmarkRingExchange is the mpi rung of the ladder: one Bounce-mode
// message, posted receive to finished copy, on an 8-rank ring.
func BenchmarkRingExchange(b *testing.B) {
	const ranks = 8
	eng, w := phantomWorld(b, ranks, Bounce)
	rg := newRing(b, eng.Run, w)
	rg.round()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rg.round()
	}
	b.StopTimer()
	msgs := float64(b.N) * ranks
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/msgs, "ns/msg")
	b.ReportMetric(float64(testing.AllocsPerRun(20, rg.round))/ranks, "allocs/msg")
}

// putRing is an n-rank ring of one-sided writes: in each round every rank
// puts one payload into a window its right neighbour registered. A Bounce
// world ignores the registrations and lands every put via the bounce
// arena.
type putRing struct {
	run  func(des.Time) uint64
	w    *World
	wins []uint64
	data []byte
}

func newPutRing(tb testing.TB, run func(des.Time) uint64, w *World) *putRing {
	tb.Helper()
	pr := &putRing{run: run, w: w, data: make([]byte, ringMsgBytes)}
	for i := 0; i < w.Size(); i++ {
		r := w.Rank(i)
		win := r.Space().MapData(4 * ringMsgBytes)
		r.RegisterMemory(win)
		pr.wins = append(pr.wins, win.Start())
	}
	return pr
}

func (pr *putRing) round() {
	n := pr.w.Size()
	for i := 0; i < n; i++ {
		dst := (i + 1) % n
		pr.w.Rank(i).Put(dst, pr.wins[dst], pr.data, nil)
	}
	pr.run(des.MaxTime)
}

// TestPutAllocatesOnlyItsPayload: once the free lists are warm, a put
// travels the pooled message record like a two-sided message, and its
// payload copy lands in the buffer that record already holds, so it
// allocates nothing — whether it lands by DMA or through the bounce arena.
func TestPutAllocatesOnlyItsPayload(t *testing.T) {
	const ranks = 4
	for _, mode := range []DeliveryMode{Bounce, Direct} {
		eng, w := phantomWorld(t, ranks, mode)
		pr := newPutRing(t, eng.Run, w)
		for i := 0; i < 4; i++ {
			pr.round()
		}
		if allocs := testing.AllocsPerRun(200, pr.round) / ranks; allocs != 0 {
			t.Errorf("mode %d: a warm put allocates %v, want 0 (its payload copy reuses its record's buffer)", mode, allocs)
		}
		for i := 0; i < ranks; i++ {
			st := w.Rank(i).Stats()
			if st.Puts == 0 || st.BytesReceived != st.Puts*ringMsgBytes || st.Recvs != 0 {
				t.Fatalf("mode %d rank %d: stats %+v", mode, i, st)
			}
		}
	}
}

// BenchmarkPutRing is the one-sided rung of the ladder: one put,
// injection to DMA landing, on an 8-rank registered Direct ring.
func BenchmarkPutRing(b *testing.B) {
	const ranks = 8
	eng, w := phantomWorld(b, ranks, Direct)
	pr := newPutRing(b, eng.Run, w)
	pr.round()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr.round()
	}
	b.StopTimer()
	puts := float64(b.N) * ranks
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/puts, "ns/put")
	b.ReportMetric(float64(testing.AllocsPerRun(20, pr.round))/ranks, "allocs/put")
}

// TestSendDataPayloadsIndependent: a payload is copied into its message's
// record at injection, so two sends from one rank in flight at once —
// the sender overwriting its buffer straight after each call — deliver
// their own bytes to their own receivers: in the continuation's
// m.Payload and in the destination buffer, with the receive posted first
// or the message waiting unexpected, through the bounce arena or by DMA.
// Later rounds run on warm records, whose buffers an earlier message
// left behind.
func TestSendDataPayloadsIndependent(t *testing.T) {
	const n = 3000
	for _, mode := range []DeliveryMode{Bounce, Direct} {
		eng, w := testWorld(t, 3, mode)
		dsts := make([]uint64, 3)
		for i := 1; i < 3; i++ {
			reg := w.Rank(i).Space().MapData(1 << 14)
			if mode == Direct {
				w.Rank(i).RegisterMemory(reg)
			}
			dsts[i] = reg.Start()
		}
		send := make([]byte, n)
		for round := 0; round < 4; round++ {
			want := [3][]byte{}
			for dst := 1; dst < 3; dst++ {
				want[dst] = bytes.Repeat([]byte{byte(16*round + dst)}, n)
			}
			done := 0
			recv := func(dst int) {
				w.Rank(dst).Recv(0, round, dsts[dst], func(m Message) {
					if !bytes.Equal(m.Payload, want[dst]) {
						t.Errorf("mode %d round %d: rank %d's continuation reads another payload", mode, round, dst)
					}
					got := make([]byte, n)
					if err := w.Rank(dst).Space().Read(dsts[dst], got); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want[dst]) {
						t.Errorf("mode %d round %d: rank %d's buffer holds another payload", mode, round, dst)
					}
					done++
				})
			}
			posted := round%2 == 0
			if posted {
				recv(1)
				recv(2)
			}
			for dst := 1; dst < 3; dst++ {
				copy(send, want[dst])
				w.Rank(0).SendData(dst, round, send, nil)
				clear(send)
			}
			if !posted {
				eng.Run(des.MaxTime) // both wait in their receivers' unexpected queues
				recv(1)
				recv(2)
			}
			eng.Run(des.MaxTime)
			if done != 2 {
				t.Fatalf("mode %d round %d: %d of 2 receives completed", mode, round, done)
			}
		}
	}
}

// TestContinuationSendKeepsPayload: a receive's payload is lent until
// its continuation returns, so a continuation that makes the original
// sender send again — same length, into whatever record the sender has
// free — still reads its own message intact afterwards.
func TestContinuationSendKeepsPayload(t *testing.T) {
	for _, mode := range []DeliveryMode{Bounce, Direct} {
		eng, w := testWorld(t, 2, mode)
		r0, r1 := w.Rank(0), w.Rank(1)
		dst := r1.Space().MapData(1 << 14).Start()
		first := bytes.Repeat([]byte{0xA1}, 512)
		second := bytes.Repeat([]byte{0xB2}, 512)
		var replies int
		for round := 0; round < 3; round++ {
			r1.Recv(0, 0, dst, func(m Message) {
				r0.SendData(1, 1, second, nil)
				if !bytes.Equal(m.Payload, first) {
					t.Errorf("mode %d round %d: the payload changed under its continuation", mode, round)
				}
			})
			r1.Recv(0, 1, 0, func(m Message) {
				if !bytes.Equal(m.Payload, second) {
					t.Errorf("mode %d round %d: the continuation's send delivered another payload", mode, round)
				}
				replies++
			})
			r0.SendData(1, 0, first, nil)
			eng.Run(des.MaxTime)
		}
		if replies != 3 {
			t.Fatalf("mode %d: %d of 3 continuation sends delivered", mode, replies)
		}
	}
}
