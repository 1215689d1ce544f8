package cluster

import (
	"testing"

	"repro/internal/des"
	"repro/internal/mem"
	"repro/internal/mpi"
)

func hbWorld(t *testing.T, n int, faults *mpi.NetFaultConfig) (*des.Engine, *mpi.World) {
	t.Helper()
	eng := des.NewEngine()
	spaces := make([]*mem.AddressSpace, n)
	for i := range spaces {
		spaces[i] = mem.NewAddressSpace(mem.Config{PageSize: 4096, Phantom: true})
	}
	w, err := mpi.NewWorld(eng, mpi.QsNet(), mpi.Direct, spaces)
	if err != nil {
		t.Fatal(err)
	}
	if faults != nil {
		if err := w.SetFaults(*faults); err != nil {
			t.Fatal(err)
		}
	}
	return eng, w
}

func TestDetectorValidation(t *testing.T) {
	eng, w := hbWorld(t, 2, nil)
	if _, err := NewDetector(eng, w, 0); err == nil {
		t.Fatal("zero period accepted")
	}
}

// On a clean network a failed rank is detected by a survivor within
// timeout + one check period, and never before the timeout elapses.
func TestDetectionLatencyBounds(t *testing.T) {
	period := 50 * des.Millisecond
	timeout := HeartbeatTimeout(period)
	eng, w := hbWorld(t, 4, nil)
	d, err := NewDetector(eng, w, period)
	if err != nil {
		t.Fatal(err)
	}
	var got []Detection
	d.OnDeath = func(det Detection) { got = append(got, det); eng.Stop() }
	d.Start()

	failAt := 333 * des.Millisecond
	eng.Schedule(failAt, func() {
		if live := d.MarkFailed(2); live != 3 {
			t.Fatalf("live after one failure = %d", live)
		}
	})
	eng.Run(5 * des.Second)

	if len(got) != 1 {
		t.Fatalf("detections = %d, want 1", len(got))
	}
	det := got[0]
	if det.Rank != 2 || det.Observer == 2 {
		t.Fatalf("detection = %+v", det)
	}
	if det.FailedAt != failAt {
		t.Fatalf("FailedAt = %v, want %v", det.FailedAt, failAt)
	}
	lat := det.Latency()
	if lat < timeout-period || lat > timeout+2*period {
		t.Fatalf("latency %v outside [timeout-period, timeout+2*period] around %v", lat, timeout)
	}
	if d.FalseSuspicions() != 0 {
		t.Fatalf("clean network produced %d false suspicions", d.FalseSuspicions())
	}
}

// Message loss produces false suspicion of live ranks; fresh heartbeats
// clear the suspicion so the run keeps going.
func TestFalseSuspicionUnderLoss(t *testing.T) {
	period := 20 * des.Millisecond
	eng, w := hbWorld(t, 4, &mpi.NetFaultConfig{Seed: 21, DropRate: 0.55})
	d, err := NewDetector(eng, w, period)
	if err != nil {
		t.Fatal(err)
	}
	d.OnDeath = func(x Detection) { t.Errorf("no rank failed, but detected %+v", x) }
	d.Start()
	eng.Run(20 * des.Second)
	if d.FalseSuspicions() == 0 {
		t.Fatal("55% loss with a 4-period timeout produced no false suspicion")
	}
}

// A real failure is still detected exactly once over a lossy fabric, and
// the detector is deterministic per seed.
func TestDetectionUnderLossDeterministic(t *testing.T) {
	run := func() (Detection, int) {
		period := 25 * des.Millisecond
		eng, w := hbWorld(t, 5, &mpi.NetFaultConfig{Seed: 9, DropRate: 0.3})
		d, err := NewDetector(eng, w, period)
		if err != nil {
			t.Fatal(err)
		}
		d.Start()
		eng.Schedule(777*des.Millisecond, func() { d.MarkFailed(0) })
		var det Detection
		deaths := 0
		d.OnDeath = func(x Detection) { det = x; deaths++; eng.Stop() }
		eng.Run(30 * des.Second)
		if deaths != 1 {
			t.Fatalf("detections = %d, want 1", deaths)
		}
		return det, d.FalseSuspicions()
	}
	d1, f1 := run()
	d2, f2 := run()
	if d1 != d2 || f1 != f2 {
		t.Fatalf("detector diverged: %+v/%d vs %+v/%d", d1, f1, d2, f2)
	}
	if d1.Latency() <= 0 {
		t.Fatalf("non-positive detection latency %v", d1.Latency())
	}
}

// Stop halts gossip; MarkFailed twice is a no-op; Failed reports state.
func TestDetectorLifecycle(t *testing.T) {
	eng, w := hbWorld(t, 3, nil)
	d, err := NewDetector(eng, w, 10*des.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	if live := d.MarkFailed(1); live != 2 {
		t.Fatalf("live = %d", live)
	}
	if live := d.MarkFailed(1); live != 2 {
		t.Fatalf("double MarkFailed changed live count to %d", live)
	}
	if !d.Failed(1) || d.Failed(0) {
		t.Fatal("Failed() wrong")
	}
	d.Stop()
	fired := eng.Run(des.MaxTime)
	// After Stop the detector schedules nothing new; the engine drains
	// whatever heartbeats were already in flight and goes quiet.
	if fired > 1000 {
		t.Fatalf("engine still busy after Stop: %d events", fired)
	}
}

// TestHeartbeatsReuseTheirContinuation: a heard heartbeat re-posts the
// rank's receive with the continuation bound at Start, so on a clean
// network a period of N² heartbeats allocates nothing once the queues and
// the message records have warmed up.
func TestHeartbeatsReuseTheirContinuation(t *testing.T) {
	const ranks = 8
	period := 50 * des.Millisecond
	eng, w := hbWorld(t, ranks, nil)
	d, err := NewDetector(eng, w, period)
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	eng.Run(eng.Now() + 4*period)
	allocs := testing.AllocsPerRun(20, func() { eng.Run(eng.Now() + period) })
	if allocs != 0 {
		t.Fatalf("a heartbeat period on %d ranks allocates %v, want 0", ranks, allocs)
	}
	if d.FalseSuspicions() != 0 {
		t.Fatalf("%d false suspicions on a clean network", d.FalseSuspicions())
	}
}

// A rank its observer already suspects — the fabric ate its heartbeats
// while it lived — is still declared when it then fails: the latched
// suspicion keeps one silence of a live peer from counting twice, it
// does not make the observer deaf to the death. Before, a rank every
// survivor suspected at its death was never declared, and a supervised
// run waited on the detection forever.
func TestSuspectedRankIsDeclaredWhenItFails(t *testing.T) {
	period := 50 * des.Millisecond
	eng, w := hbWorld(t, 2, &mpi.NetFaultConfig{
		Seed:    1,
		Windows: []mpi.DegradedWindow{{From: 0, To: 2 * des.Second, ExtraDrop: 1}},
	})
	d, err := NewDetector(eng, w, period)
	if err != nil {
		t.Fatal(err)
	}
	var got []Detection
	d.OnDeath = func(det Detection) { got = append(got, det); eng.Stop() }
	d.Start()
	var poll *des.Ticker
	poll = eng.NewTicker(period/2, func(des.Time) {
		if d.suspected[0][1] {
			d.MarkFailed(1)
			poll.Stop()
		}
	})
	eng.Run(5 * des.Second)
	if !d.Failed(1) {
		t.Fatal("rank 0 never suspected rank 1: the test proves nothing")
	}
	if len(got) != 1 || got[0].Rank != 1 {
		t.Fatalf("detections %+v, want rank 1 declared", got)
	}
	if lat := got[0].Latency(); lat > period {
		t.Errorf("latency %v: an observer that already suspected the rank declares it at its next check", lat)
	}
}
