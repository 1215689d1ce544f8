package mpi

import (
	"testing"

	"repro/internal/des"
)

func faultyWorld(t *testing.T, n int, mode DeliveryMode, cfg NetFaultConfig) (*des.Engine, *World) {
	t.Helper()
	eng, w := testWorld(t, n, mode)
	if err := w.SetFaults(cfg); err != nil {
		t.Fatal(err)
	}
	return eng, w
}

func TestSetFaultsValidation(t *testing.T) {
	_, w := testWorld(t, 2, Direct)
	if err := w.SetFaults(NetFaultConfig{DropRate: 1.5}); err == nil {
		t.Fatal("drop rate 1.5 accepted")
	}
	if err := w.SetFaults(NetFaultConfig{DupRate: -0.1}); err == nil {
		t.Fatal("negative dup rate accepted")
	}
	if w.faults != nil {
		t.Fatal("rejected configs must not install")
	}
}

// Plain sends keep their exactly-once contract under heavy loss: every
// message arrives exactly once, only later.
func TestPlainSendExactlyOnceUnderLoss(t *testing.T) {
	eng, w := faultyWorld(t, 2, Direct, NetFaultConfig{Seed: 7, DropRate: 0.4, DupRate: 0.3})
	r0, r1 := w.Rank(0), w.Rank(1)
	const msgs = 200
	got := make(map[int]int)
	for i := 0; i < msgs; i++ {
		tag := i
		r1.Recv(0, tag, 0, func(m Message) { got[tag]++ })
		r0.Send(1, tag, 4096, nil)
	}
	eng.Run(des.MaxTime)
	if len(got) != msgs {
		t.Fatalf("delivered %d of %d messages", len(got), msgs)
	}
	for tag, n := range got {
		if n != 1 {
			t.Fatalf("tag %d delivered %d times", tag, n)
		}
	}
	st := w.faultStats()
	if st.Drops == 0 || st.Retransmits == 0 {
		t.Fatalf("fault model idle under 40%% loss: %+v", st)
	}
}

// Loss costs time: the same traffic takes strictly longer on a lossy
// fabric than on a clean one.
func TestLossDelaysDelivery(t *testing.T) {
	elapsed := func(cfg *NetFaultConfig) des.Time {
		eng, w := testWorld(t, 2, Direct)
		if cfg != nil {
			if err := w.SetFaults(*cfg); err != nil {
				t.Fatal(err)
			}
		}
		var last des.Time
		for i := 0; i < 50; i++ {
			w.Rank(1).Recv(0, i, 0, func(m Message) { last = m.DeliveredAt })
			w.Rank(0).Send(1, i, 65536, nil)
		}
		eng.Run(des.MaxTime)
		return last
	}
	clean := elapsed(nil)
	lossy := elapsed(&NetFaultConfig{Seed: 3, DropRate: 0.3})
	if lossy <= clean {
		t.Fatalf("lossy delivery (%v) not slower than clean (%v)", lossy, clean)
	}
}

// Best-effort datagrams genuinely lose and duplicate.
func TestSendBestEffortLossAndDup(t *testing.T) {
	eng, w := faultyWorld(t, 2, Direct, NetFaultConfig{Seed: 5, DropRate: 0.3, DupRate: 0.3})
	const msgs = 300
	counts := make([]int, msgs)
	var post func()
	recvd := 0
	post = func() {
		w.Rank(1).Recv(0, 42, 0, func(m Message) {
			_ = m
			recvd++
			post()
		})
	}
	post()
	for i := 0; i < msgs; i++ {
		tag := i
		_ = tag
		w.Rank(0).SendBestEffort(1, 42, 64, func() { counts[tag]++ })
	}
	eng.Run(des.MaxTime)
	st := w.faultStats()
	if st.Drops == 0 {
		t.Fatal("no best-effort datagrams lost at 30% drop")
	}
	if st.DupDeliveries == 0 {
		t.Fatal("no duplicates at 30% dup rate")
	}
	// Deliveries = sent - dropped + duplicated.
	want := msgs - int(st.Drops) + int(st.DupDeliveries)
	if recvd != want {
		t.Fatalf("received %d datagrams, want %d (drops %d, dups %d)",
			recvd, want, st.Drops, st.DupDeliveries)
	}
}

// The whole fault model is bit-reproducible per seed, and different
// seeds give different timelines.
func TestFaultDeterminism(t *testing.T) {
	run := func(seed uint64) (des.Time, NetFaultStats) {
		eng, w := testWorld(t, 4, Bounce)
		if err := w.SetFaults(NetFaultConfig{
			Seed: seed, DropRate: 0.2, DupRate: 0.1, JitterMax: 5 * des.Microsecond,
		}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			for r := 0; r < 4; r++ {
				dst := (r + 1) % 4
				w.Rank(dst).Recv(r, 10+i, 0, nil)
				w.Rank(r).Send(dst, 10+i, 8192, nil)
			}
		}
		done := 0
		for r := 0; r < 4; r++ {
			w.Rank(r).AllReduce(1024, 0, func() { done++ })
		}
		eng.Run(des.MaxTime)
		if done != 4 {
			t.Fatalf("allreduce completed on %d/4 ranks", done)
		}
		return eng.Now(), w.faultStats()
	}
	t1, s1 := run(11)
	t2, s2 := run(11)
	if t1 != t2 || s1 != s2 {
		t.Fatalf("same seed diverged: %v/%v vs %v/%v", t1, s1, t2, s2)
	}
	t3, _ := run(12)
	if t3 == t1 {
		t.Fatalf("different seeds produced identical timeline %v", t1)
	}
}

// Degradation windows slow transfers and add loss only inside the window.
func TestDegradedWindow(t *testing.T) {
	cfg := NetFaultConfig{
		Seed: 9,
		Windows: []DegradedWindow{{
			From: 1 * des.Millisecond, To: 2 * des.Millisecond,
			ExtraDrop: 0.5, SlowFactor: 8,
		}},
	}
	eng, w := faultyWorld(t, 2, Direct, cfg)
	// Before the window: clean timing.
	var first des.Time
	w.Rank(1).Recv(0, 1, 0, func(m Message) { first = m.DeliveredAt })
	w.Rank(0).Send(1, 1, 65536, nil)
	eng.Run(des.MaxTime)
	if want := QsNet().transfer(65536); first != want {
		t.Fatalf("pre-window delivery at %v, want clean %v", first, want)
	}
	// Inside the window: transfers are slowed 8x (plus any retransmits).
	var second des.Time
	eng.Schedule(1*des.Millisecond+100*des.Microsecond, func() {
		start := eng.Now()
		w.Rank(1).Recv(0, 2, 0, func(m Message) { second = m.DeliveredAt - start })
		w.Rank(0).Send(1, 2, 65536, nil)
	})
	eng.Run(des.MaxTime)
	if second < des.Time(float64(QsNet().transfer(65536))*8)-QsNet().Latency {
		t.Fatalf("in-window transfer took %v, want >= 8x clean", second)
	}
}

// Collectives complete under loss, later than on a clean fabric.
func TestCollectivesCompleteUnderLoss(t *testing.T) {
	for _, n := range []int{1, 3, 4} {
		run := func(faulty bool) des.Time {
			eng, w := testWorld(t, n, Direct)
			if faulty {
				if err := w.SetFaults(NetFaultConfig{Seed: 2, DropRate: 0.3}); err != nil {
					t.Fatal(err)
				}
			}
			done := 0
			for r := 0; r < n; r++ {
				rank := w.Rank(r)
				rank.AllReduce(4096, 0, func() {
					rank.Barrier(func() { done++ })
				})
			}
			eng.Run(des.MaxTime)
			if done != n {
				t.Fatalf("n=%d faulty=%v: %d/%d collectives completed", n, faulty, done, n)
			}
			return eng.Now()
		}
		clean, lossy := run(false), run(true)
		if n > 1 && lossy <= clean {
			t.Fatalf("n=%d: lossy collectives (%v) not slower than clean (%v)", n, lossy, clean)
		}
	}
}
