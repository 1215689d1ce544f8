package mpi

import (
	"bytes"
	"testing"

	"repro/internal/des"
	"repro/internal/mem"
)

func TestDrainPhaseNamesRoundTrip(t *testing.T) {
	for i := 0; i < NumDrainPhases; i++ {
		p := DrainPhase(i)
		got, err := ParseDrainPhase(p.String())
		if err != nil {
			t.Fatalf("ParseDrainPhase(%q): %v", p.String(), err)
		}
		if got != p {
			t.Fatalf("round trip %v -> %v", p, got)
		}
	}
	if _, err := ParseDrainPhase("warp"); err == nil {
		t.Fatal("unknown phase accepted")
	}
}

func TestRegisteredDeliveryMarksSilent(t *testing.T) {
	eng, w := testWorld(t, 2, Direct)
	r0, r1 := w.Rank(0), w.Rank(1)
	buf := r1.Space().MapData(1 << 16)
	r1.RegisterMemory(buf)
	buf.ProtectAll()

	payload := bytes.Repeat([]byte{0x42}, 8192)
	r1.Recv(0, 1, buf.Start(), nil)
	r0.SendData(1, 1, payload, nil)
	eng.Run(des.MaxTime)

	st := r1.Stats()
	if st.DirectBypassBytes != 8192 {
		t.Fatalf("DirectBypassBytes = %d, want 8192", st.DirectBypassBytes)
	}
	if st.SilentDirtyBytes != 8192 {
		t.Fatalf("SilentDirtyBytes = %d, want 8192", st.SilentDirtyBytes)
	}
	if r1.Space().Faults() != 0 {
		t.Fatalf("DMA delivery raised %d faults", r1.Space().Faults())
	}
	if got := r1.Space().SilentDirtyBytes(); got != 8192 {
		t.Fatalf("space SilentDirtyBytes = %d, want 8192", got)
	}
	got := make([]byte, 8192)
	if err := r1.Space().Read(buf.Start(), got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload did not land")
	}
}

func TestUnregisteredDeliveryFallsBackToBounce(t *testing.T) {
	eng, w := testWorld(t, 2, Direct)
	r0, r1 := w.Rank(0), w.Rank(1)
	buf := r1.Space().MapData(1 << 16)
	var faults int
	openLog(w, 1, &faults)
	r1.Recv(0, 1, buf.Start(), nil)
	r0.Send(1, 1, 4096, nil)
	eng.Run(des.MaxTime)

	st := r1.Stats()
	if st.BounceCopyBytes != 4096 {
		t.Fatalf("BounceCopyBytes = %d, want 4096 (unregistered fallback)", st.BounceCopyBytes)
	}
	if st.DirectBypassBytes != 0 || st.SilentDirtyBytes != 0 {
		t.Fatalf("bypass stats %d/%d on the bounce path, want 0/0", st.DirectBypassBytes, st.SilentDirtyBytes)
	}
	if faults == 0 {
		t.Fatal("bounce copy raised no faults — tracker would miss it")
	}
}

func TestRegisterAllDataAndDeregister(t *testing.T) {
	_, w := testWorld(t, 1, Direct)
	r := w.Rank(0)
	d := r.Space().MapData(4 * 4096)
	pages := r.RegisterAllData()
	regs := r.registered
	if len(regs) != 1 || pages != 4 {
		t.Fatalf("RegisterAllData = %d regions / %d pages, want 1/4 (bounce+stack excluded)", len(regs), pages)
	}
	if got := r.Stats().RegisteredBytes; got != 4*4096 {
		t.Fatalf("RegisteredBytes = %d, want %d", got, 4*4096)
	}
	d.ProtectAll()
	if _, err := r.Space().WriteDirect(d.Start(), []byte{1}); err != nil {
		t.Fatal(err)
	}
	deregPages, replayed := r.DeregisterAll()
	if deregPages != 4 || replayed != 1 {
		t.Fatalf("DeregisterAll = %d pages / %d replayed, want 4/1", deregPages, replayed)
	}
	if got := r.Stats().RegisteredBytes; got != 0 {
		t.Fatalf("RegisteredBytes = %d after deregister, want 0", got)
	}
	if r.Space().SilentDirtyBytes() != 0 {
		t.Fatal("deregistration left silent pages")
	}
	if cost := w.RegisterCost(4); cost <= 0 {
		t.Fatalf("RegisterCost(4) = %v, want > 0", cost)
	}
}

func TestPutOneSidedDelivery(t *testing.T) {
	eng, w := testWorld(t, 2, Direct)
	r0, r1 := w.Rank(0), w.Rank(1)
	win := r1.Space().MapData(4096)
	r1.RegisterMemory(win)
	win.ProtectAll()

	completed := false
	r0.Put(1, win.Start(), []byte{1, 2, 3, 4}, func() { completed = true })
	if w.rdma.total != 1 || w.rdma.inflight[1] != 1 {
		t.Fatalf("in flight = %d / to rank 1 = %d after injection, want 1/1", w.rdma.total, w.rdma.inflight[1])
	}
	eng.Run(des.MaxTime)

	if !completed {
		t.Fatal("Put completion never ran")
	}
	if w.rdma.total != 0 {
		t.Fatalf("in flight = %d after run, want 0", w.rdma.total)
	}
	st := r1.Stats()
	if st.BytesReceived != 4 || r0.Stats().Puts != 1 {
		t.Fatalf("receiver got %d bytes, sender Puts = %d; want 4/1", st.BytesReceived, r0.Stats().Puts)
	}
	if st.SilentDirtyBytes != 4 {
		t.Fatalf("SilentDirtyBytes = %d, want 4 (protected page, no Recv posted)", st.SilentDirtyBytes)
	}
	got := make([]byte, 4)
	if err := r1.Space().Read(win.Start(), got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{1, 2, 3, 4}) {
		t.Fatal("one-sided payload did not land")
	}
}

func TestPutUnderFaultsExactlyOnce(t *testing.T) {
	eng, w := testWorld(t, 2, Direct)
	if err := w.SetFaults(NetFaultConfig{Seed: 3, DropRate: 0.4, DupRate: 0.3}); err != nil {
		t.Fatal(err)
	}
	r0, r1 := w.Rank(0), w.Rank(1)
	win := r1.Space().MapData(4096)
	r1.RegisterMemory(win)

	for i := 0; i < 20; i++ {
		r0.Put(1, win.Start(), []byte{byte(i)}, nil)
	}
	eng.Run(des.MaxTime)
	if got := r1.Stats().BytesReceived; got != 20 {
		t.Fatalf("BytesReceived = %d under ARQ, want exactly 20", got)
	}
	if w.rdma.total != 0 {
		t.Fatalf("in flight = %d after drain, want 0", w.rdma.total)
	}
}

func TestAwaitDrainCompletes(t *testing.T) {
	eng, w := testWorld(t, 2, Direct)
	r0, r1 := w.Rank(0), w.Rank(1)
	win := r1.Space().MapData(1 << 20)
	r1.RegisterMemory(win)

	r0.Put(1, win.Start(), bytes.Repeat([]byte{7}, 1<<19), nil)
	var stranded []int
	drained := false
	w.AwaitDrain(0, func(s []int) { stranded = s; drained = true })
	if drained {
		t.Fatal("AwaitDrain returned synchronously with traffic in flight")
	}
	eng.Run(des.MaxTime)
	if !drained || stranded != nil {
		t.Fatalf("drained=%v stranded=%v, want true/nil", drained, stranded)
	}
}

func TestAwaitDrainTimeoutReportsStranded(t *testing.T) {
	eng, w := testWorld(t, 3, Direct)
	r0, r2 := w.Rank(0), w.Rank(2)
	win := r2.Space().MapData(1 << 20)
	r2.RegisterMemory(win)

	// A transfer whose wire time (>500 µs at 900 MB/s for 512 KB)
	// dwarfs the drain budget.
	r0.Put(2, win.Start(), bytes.Repeat([]byte{7}, 1<<19), nil)
	var stranded []int
	w.AwaitDrain(50*des.Microsecond, func(s []int) { stranded = s })
	eng.Run(des.MaxTime)
	if len(stranded) != 1 || stranded[0] != 2 {
		t.Fatalf("stranded = %v, want [2]", stranded)
	}
}

func TestDegradedRankUsesBouncePath(t *testing.T) {
	eng, w := testWorld(t, 2, Direct)
	r0, r1 := w.Rank(0), w.Rank(1)
	win := r1.Space().MapData(4096)
	r1.RegisterMemory(win)
	openLog(w, 1, nil)
	r1.DegradeToBounce()

	r0.Put(1, win.Start(), []byte{9, 9}, nil)
	eng.Run(des.MaxTime)

	st := r1.Stats()
	if st.SilentDirtyBytes != 0 || st.DirectBypassBytes != 0 {
		t.Fatalf("degraded rank still DMA'd: bypass=%d silent=%d", st.DirectBypassBytes, st.SilentDirtyBytes)
	}
	if st.BounceCopyBytes != 2 {
		t.Fatalf("BounceCopyBytes = %d, want 2", st.BounceCopyBytes)
	}
	if !r1.Degraded() {
		t.Fatal("Degraded not sticky")
	}
}

func TestAwaitDrainWithoutRDMAPanics(t *testing.T) {
	_, w := testWorld(t, 1, Bounce)
	defer func() {
		if recover() == nil {
			t.Fatal("AwaitDrain on a Bounce world did not panic")
		}
	}()
	w.AwaitDrain(0, func([]int) {})
}

// TestDirectWorldReadyAtConstruction: NewWorld alone builds the
// registered-memory world — a bounce arena on every rank, registration
// priced, and a drain that waits for a put to land.
func TestDirectWorldReadyAtConstruction(t *testing.T) {
	eng, w := testWorld(t, 3, Direct)
	for i := 0; i < w.Size(); i++ {
		if b := w.BounceRegion(i); b == nil || b.Size() != 1<<20 || b.Kind() != mem.Bounce {
			t.Fatalf("rank %d bounce arena %v, want a 1 MB bounce region", i, b)
		}
	}
	if got, want := w.RegisterCost(4), registerBase+4*registerPerPage; got != want {
		t.Fatalf("RegisterCost(4) = %v, want %v", got, want)
	}
	r2 := w.Rank(2)
	win := r2.Space().MapData(4096)
	r2.RegisterMemory(win)
	var landedAt, drainedAt des.Time = -1, -1
	r2.SetDeliveryHook(func(_ uint64, at des.Time) { landedAt = at })
	w.Rank(0).Put(2, win.Start(), []byte{1, 2, 3}, nil)
	w.AwaitDrain(0, func(s []int) {
		if s != nil {
			t.Errorf("stranded %v with no timeout", s)
		}
		drainedAt = eng.Now()
	})
	eng.Run(des.MaxTime)
	if landedAt < 0 || drainedAt < landedAt {
		t.Fatalf("put landed at %v, drain ended at %v: want the drain after the landing", landedAt, drainedAt)
	}
}

// TestPutLandingTable pins where and when a put lands and what it counts
// on each of its paths: DMA into a registered destination, the bounce
// fallback of an unregistered one, a degraded rank, a Bounce world, and
// the ARQ schedule of a lossy fabric. The rows hold the values a put
// produced when it had a landing path of its own, apart from complete's.
// A put is no receive, so Recvs stays 0 throughout.
func TestPutLandingTable(t *testing.T) {
	const n = 8192 // two pages
	for _, c := range []struct {
		name                     string
		mode                     DeliveryMode
		register, degrade, lossy bool

		at                     des.Time
		bounce, bypass, silent uint64
		faults                 int
	}{
		{name: "registered", mode: Direct, register: true, at: 11102, bypass: n, silent: n},
		{name: "unregistered", mode: Direct, at: 15198, bounce: n, faults: 2},
		{name: "degraded", mode: Direct, register: true, degrade: true, at: 15198, bounce: n, faults: 2},
		{name: "bounce-world", mode: Bounce, register: true, at: 15198, bounce: n, faults: 2},
		{name: "lossy", mode: Direct, register: true, lossy: true, at: 56289, bypass: n, silent: n},
	} {
		t.Run(c.name, func(t *testing.T) {
			eng, w := testWorld(t, 2, c.mode)
			if c.lossy {
				if err := w.SetFaults(NetFaultConfig{Seed: 4, DropRate: 0.6, JitterMax: des.Microsecond}); err != nil {
					t.Fatal(err)
				}
			}
			r0, r1 := w.Rank(0), w.Rank(1)
			win := r1.Space().MapData(4 * 4096)
			if c.register {
				r1.RegisterMemory(win)
			}
			if c.degrade {
				r1.DegradeToBounce()
			}
			var faults int
			openLog(w, 1, &faults)
			var hooks []des.Time
			r1.SetDeliveryHook(func(b uint64, at des.Time) {
				if b != n {
					t.Errorf("delivery hook saw %d bytes, want %d", b, n)
				}
				hooks = append(hooks, at)
			})
			payload := bytes.Repeat([]byte{0x5a}, n)
			r0.Put(1, win.Start(), payload, nil)
			eng.Run(des.MaxTime)

			st := r1.Stats()
			if len(hooks) != 1 || hooks[0] != c.at {
				t.Errorf("delivery hook calls %d, want one at %d", hooks, c.at)
			}
			if st.BytesReceived != n || st.BounceCopyBytes != c.bounce || st.DirectBypassBytes != c.bypass || st.SilentDirtyBytes != c.silent {
				t.Errorf("received/bounce/bypass/silent = %d/%d/%d/%d, want %d/%d/%d/%d",
					st.BytesReceived, st.BounceCopyBytes, st.DirectBypassBytes, st.SilentDirtyBytes, n, c.bounce, c.bypass, c.silent)
			}
			if faults != c.faults {
				t.Errorf("write faults = %d, want %d", faults, c.faults)
			}
			if st.Recvs != 0 {
				t.Errorf("Recvs = %d after a put, want 0", st.Recvs)
			}
			got := make([]byte, n)
			if err := r1.Space().Read(win.Start(), got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, payload) {
				t.Error("payload did not land")
			}
		})
	}
}
