package mpi

import (
	"math/bits"
	"testing"

	"repro/internal/des"
	"repro/internal/mem"
)

func testWorld(t *testing.T, n int, mode DeliveryMode) (*des.Engine, *World) {
	t.Helper()
	eng := des.NewEngine()
	spaces := make([]*mem.AddressSpace, n)
	for i := range spaces {
		spaces[i] = mem.NewAddressSpace(mem.Config{PageSize: 4096})
	}
	w, err := NewWorld(eng, QsNet(), mode, spaces)
	if err != nil {
		t.Fatal(err)
	}
	return eng, w
}

// openLog opens a dirty log over rank id's data memory — its bounce
// arena, of kind mem.Bounce, stays unprotected; faults, when not nil,
// counts the pages it records.
func openLog(w *World, id int, faults *int) {
	l := mem.NewDirtyLog(w.Rank(id).Space())
	if faults != nil {
		l.OnFault = func(_ *mem.Region, _, m uint64) { *faults += bits.OnesCount64(m) }
	}
	l.Open()
}

func TestNewWorldValidation(t *testing.T) {
	eng := des.NewEngine()
	if _, err := NewWorld(eng, QsNet(), Direct, nil); err == nil {
		t.Fatal("empty world accepted")
	}
	sp := []*mem.AddressSpace{mem.NewAddressSpace(mem.Config{PageSize: 4096})}
	if _, err := NewWorld(eng, QsNet(), DeliveryMode(2), sp); err == nil {
		t.Fatal("unknown delivery mode accepted")
	}
}

func TestSendRecvDirect(t *testing.T) {
	eng, w := testWorld(t, 2, Direct)
	r0, r1 := w.Rank(0), w.Rank(1)
	buf, _ := r1.Space().Mmap(1 << 16)

	var got Message
	done := false
	r1.Recv(0, 7, buf.Start(), func(m Message) { got = m; done = true })
	r0.Send(1, 7, 50000, nil)
	eng.Run(des.MaxTime)

	if !done {
		t.Fatal("recv never completed")
	}
	if got.Src != 0 || got.Dst != 1 || got.Tag != 7 || got.Bytes != 50000 {
		t.Fatalf("message = %+v", got)
	}
	// Transfer time: latency + bytes/bw.
	want := QsNet().transfer(50000)
	if got.DeliveredAt != want {
		t.Fatalf("DeliveredAt = %v, want %v", got.DeliveredAt, want)
	}
	if r1.Stats().BytesReceived != 50000 || r0.Stats().BytesSent != 50000 {
		t.Fatalf("stats: %+v / %+v", r0.Stats(), r1.Stats())
	}
}

func TestUnexpectedMessageQueue(t *testing.T) {
	eng, w := testWorld(t, 2, Direct)
	r0, r1 := w.Rank(0), w.Rank(1)
	// Send arrives before the receive is posted.
	r0.Send(1, 3, 1000, nil)
	eng.Run(des.MaxTime)
	done := false
	r1.Recv(AnySource, 3, 0, func(m Message) {
		if m.Src != 0 {
			t.Errorf("src = %d", m.Src)
		}
		done = true
	})
	eng.Run(des.MaxTime)
	if !done {
		t.Fatal("late-posted recv did not match queued message")
	}
}

func TestTagAndSourceMatching(t *testing.T) {
	eng, w := testWorld(t, 3, Direct)
	var order []int
	w.Rank(2).Recv(1, 5, 0, func(Message) { order = append(order, 1) })
	w.Rank(2).Recv(0, 5, 0, func(Message) { order = append(order, 0) })
	w.Rank(0).Send(2, 5, 10, nil)
	w.Rank(1).Send(2, 5, 10, nil)
	// A non-matching tag must stay queued.
	w.Rank(0).Send(2, 99, 10, nil)
	eng.Run(des.MaxTime)
	if len(order) != 2 {
		t.Fatalf("completions = %v", order)
	}
	matched := map[int]bool{order[0]: true, order[1]: true}
	if !matched[0] || !matched[1] {
		t.Fatalf("wrong matching: %v", order)
	}
}

func TestSendInvalidRankPanics(t *testing.T) {
	_, w := testWorld(t, 2, Direct)
	defer func() {
		if recover() == nil {
			t.Fatal("send to rank 9 did not panic")
		}
	}()
	w.Rank(0).Send(9, 0, 10, nil)
}

func TestSendCompletionTime(t *testing.T) {
	eng, w := testWorld(t, 2, Direct)
	var at des.Time = -1
	w.Rank(0).Send(1, 0, 1<<20, func() { at = eng.Now() })
	eng.Run(des.MaxTime)
	if at != QsNet().Latency {
		t.Fatalf("sender completion at %v, want %v (eager)", at, QsNet().Latency)
	}
}

// Direct-mode DMA into unprotected pages silently bypasses write-fault
// tracking: zero faults even though memory was written. This is why a
// tracker cannot coexist with Direct mode.
func TestDirectModeBypassesTracking(t *testing.T) {
	eng, w := testWorld(t, 2, Direct)
	r1 := w.Rank(1)
	buf, _ := r1.Space().Mmap(1 << 16)
	r1.Recv(0, 0, buf.Start(), func(Message) {})
	w.Rank(0).Send(1, 0, 8192, nil)
	eng.Run(des.MaxTime)
	if r1.Space().Faults() != 0 {
		t.Fatal("unexpected faults in direct mode")
	}
	if r1.Stats().BytesReceived != 8192 {
		t.Fatalf("BytesReceived = %d", r1.Stats().BytesReceived)
	}
}

// Bounce mode: the CPU copy faults on protected destination pages, so the
// tracker sees the write — the paper's workaround.
func TestBounceModeFaultsNaturally(t *testing.T) {
	eng, w := testWorld(t, 2, Bounce)
	r1 := w.Rank(1)
	buf, _ := r1.Space().Mmap(1 << 16)
	var faults int
	openLog(w, 1, &faults)

	done := false
	r1.Recv(0, 0, buf.Start(), func(Message) { done = true })
	w.Rank(0).Send(1, 0, 8192, nil)
	eng.Run(des.MaxTime)

	if !done {
		t.Fatal("bounce recv never completed")
	}
	if faults != 2 { // 8192 bytes = 2 pages of 4096
		t.Fatalf("faults = %d, want 2", faults)
	}
	if r1.Stats().BounceCopyBytes != 8192 {
		t.Fatalf("BounceCopyBytes = %d", r1.Stats().BounceCopyBytes)
	}
	if w.BounceRegion(1) == nil {
		t.Fatal("bounce region missing")
	}
	if w.BounceRegion(0).Kind() != mem.Bounce {
		t.Fatal("bounce region kind")
	}
}

func TestBounceCopyAddsLatency(t *testing.T) {
	eng, w := testWorld(t, 2, Bounce)
	r1 := w.Rank(1)
	buf, _ := r1.Space().Mmap(1 << 20)
	var doneAt des.Time
	r1.Recv(0, 0, buf.Start(), func(Message) { doneAt = eng.Now() })
	w.Rank(0).Send(1, 0, 1<<20, nil)
	eng.Run(des.MaxTime)
	net := QsNet()
	want := net.transfer(1<<20) + net.copyTime(1<<20)
	if doneAt != want {
		t.Fatalf("bounce completion at %v, want %v", doneAt, want)
	}
}

func TestDeliveryHook(t *testing.T) {
	eng, w := testWorld(t, 2, Direct)
	var total uint64
	w.Rank(1).SetDeliveryHook(func(b uint64, _ des.Time) { total += b })
	w.Rank(1).Recv(0, 0, 0, nil)
	w.Rank(1).Recv(0, 0, 0, nil)
	w.Rank(0).Send(1, 0, 100, nil)
	w.Rank(0).Send(1, 0, 200, nil)
	eng.Run(des.MaxTime)
	if total != 300 {
		t.Fatalf("delivery hook total = %d", total)
	}
}

func TestBarrier(t *testing.T) {
	eng, w := testWorld(t, 4, Direct)
	var times []des.Time
	// Ranks arrive at different times; all must release together after
	// the last arrival.
	for i := 0; i < 4; i++ {
		i := i
		eng.Schedule(des.Time(i)*des.Second, func() {
			w.Rank(i).Barrier(func() { times = append(times, eng.Now()) })
		})
	}
	eng.Run(des.MaxTime)
	if len(times) != 4 {
		t.Fatalf("barrier released %d ranks", len(times))
	}
	want := 3*des.Second + QsNet().Latency*2 // log2(4) = 2 steps
	for _, at := range times {
		if at != want {
			t.Fatalf("release at %v, want %v", at, want)
		}
	}
	if w.Rank(0).Stats().BarrierWaitTotal != 3*des.Second {
		t.Fatalf("BarrierWaitTotal = %v", w.Rank(0).Stats().BarrierWaitTotal)
	}
}

func TestBarrierReusable(t *testing.T) {
	eng, w := testWorld(t, 2, Direct)
	count := 0
	var iterate func(rank int)
	iterate = func(rank int) {
		w.Rank(rank).Barrier(func() {
			if rank == 0 {
				count++
			}
			if count < 3 {
				eng.After(des.Millisecond, func() { iterate(rank) })
			}
		})
	}
	iterate(0)
	iterate(1)
	eng.Run(des.MaxTime)
	if count != 3 {
		t.Fatalf("barrier iterations = %d, want 3", count)
	}
}

func TestAllReduce(t *testing.T) {
	eng, w := testWorld(t, 4, Direct)
	bufs := make([]uint64, 4)
	for i := 0; i < 4; i++ {
		r, _ := w.Rank(i).Space().Mmap(4096)
		bufs[i] = r.Start()
	}
	done := 0
	for i := 0; i < 4; i++ {
		w.Rank(i).AllReduce(1024, bufs[i], func() { done++ })
	}
	eng.Run(des.MaxTime)
	if done != 4 {
		t.Fatalf("allreduce completed on %d ranks", done)
	}
	// Completion must be strictly after a plain barrier (transfer cost).
	if eng.Now() <= QsNet().Latency*2 {
		t.Fatalf("allreduce finished too early: %v", eng.Now())
	}
	if w.Rank(0).Stats().CollectiveCalls != 1 {
		t.Fatalf("CollectiveCalls = %d", w.Rank(0).Stats().CollectiveCalls)
	}
}

func TestLogTwo(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 64: 6}
	for n, want := range cases {
		if got := logTwo(n); got != want {
			t.Errorf("logTwo(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestTransferCost(t *testing.T) {
	net := Network{Latency: des.Microsecond, Bandwidth: 1e9, CopyBandwidth: 0}
	// 1 GB at 1 GB/s = 1 s + 1 us.
	if got := net.transfer(1e9); got != des.Second+des.Microsecond {
		t.Fatalf("transfer = %v", got)
	}
	if net.copyTime(1000) != 0 {
		t.Fatal("copyTime with zero bandwidth must be 0")
	}
}

func BenchmarkPingPong(b *testing.B) {
	eng := des.NewEngine()
	spaces := []*mem.AddressSpace{
		mem.NewAddressSpace(mem.Config{Phantom: true}),
		mem.NewAddressSpace(mem.Config{Phantom: true}),
	}
	w, _ := NewWorld(eng, QsNet(), Direct, spaces)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done := false
		w.Rank(1).Recv(0, 0, 0, func(Message) {
			w.Rank(1).Send(0, 1, 4096, nil)
		})
		w.Rank(0).Recv(1, 1, 0, func(Message) { done = true })
		w.Rank(0).Send(1, 0, 4096, nil)
		eng.Run(des.MaxTime)
		if !done {
			b.Fatal("pingpong incomplete")
		}
	}
}

func TestSendDataDeliversContents(t *testing.T) {
	eng, w := testWorld(t, 2, Bounce)
	r1 := w.Rank(1)
	buf, _ := r1.Space().Mmap(1 << 14)
	const text = "the quick brown fox"
	payload := []byte(text)
	done := false
	r1.Recv(0, 0, buf.Start(), func(m Message) {
		if string(m.Payload) != text {
			t.Errorf("message payload = %q", m.Payload)
		}
		done = true
	})
	w.Rank(0).SendData(1, 0, payload, nil)
	// Sender may clobber its buffer right away (NIC copied it).
	payload[0] = 'X'
	eng.Run(des.MaxTime)
	if !done {
		t.Fatal("recv never completed")
	}
	got := make([]byte, 19)
	if err := r1.Space().Read(buf.Start(), got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "the quick brown fox" {
		t.Fatalf("destination holds %q", got)
	}
}

func TestSendDataDirectMode(t *testing.T) {
	eng, w := testWorld(t, 2, Direct)
	r1 := w.Rank(1)
	buf, _ := r1.Space().Mmap(1 << 14)
	r1.Recv(0, 0, buf.Start(), nil)
	w.Rank(0).SendData(1, 0, []byte{1, 2, 3, 4}, nil)
	eng.Run(des.MaxTime)
	got := make([]byte, 4)
	r1.Space().Read(buf.Start(), got)
	if got[0] != 1 || got[3] != 4 {
		t.Fatalf("direct payload = %v", got)
	}
	if r1.Space().Faults() != 0 {
		t.Fatal("direct delivery faulted")
	}
}

func TestSendDataFaultsThroughTrackerPath(t *testing.T) {
	eng, w := testWorld(t, 2, Bounce)
	r1 := w.Rank(1)
	buf, _ := r1.Space().Mmap(1 << 14)
	var faults int
	openLog(w, 1, &faults)
	r1.Recv(0, 0, buf.Start(), nil)
	w.Rank(0).SendData(1, 0, make([]byte, 5000), nil)
	eng.Run(des.MaxTime)
	if faults != 2 { // 5000 bytes across two 4096 pages
		t.Fatalf("payload copy took %d faults, want 2", faults)
	}
}
