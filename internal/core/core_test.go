package core

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/des"
)

func TestApps(t *testing.T) {
	apps := Apps()
	if len(apps) != 9 {
		t.Fatalf("Apps = %v", apps)
	}
	if apps[0] != "Sage-1000MB" || apps[8] != "FT" {
		t.Fatalf("order: %v", apps)
	}
}

func TestMeasure(t *testing.T) {
	m, err := Measure(MeasureConfig{App: "LU", Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if m.App != "LU" || m.Ranks != 4 || m.Timeslice != des.Second {
		t.Fatalf("config echo: %+v", m)
	}
	// LU: ~12.5 MB/s at 1 s; generous band at 4 ranks.
	if m.AvgIBMBs < 9 || m.AvgIBMBs > 17 {
		t.Fatalf("AvgIB = %.1f", m.AvgIBMBs)
	}
	if m.AvgFootprintMB < 14 || m.AvgFootprintMB > 20 {
		t.Fatalf("footprint = %.1f", m.AvgFootprintMB)
	}
	if !m.Feasible() {
		t.Fatal("LU must be feasible")
	}
	if m.NetworkHeadroom < m.DiskHeadroom {
		t.Fatal("network headroom must exceed disk headroom")
	}
	if m.Slowdown <= 0 || m.Slowdown > 0.10 {
		t.Fatalf("slowdown = %v", m.Slowdown)
	}
	if m.IWS.Len() == 0 || m.IB.Len() == 0 {
		t.Fatal("series missing")
	}
}

func TestMeasureIncludeInit(t *testing.T) {
	m, err := Measure(MeasureConfig{App: "SP", Ranks: 2, IncludeInit: true})
	if err != nil {
		t.Fatal(err)
	}
	// Init writes at 400 MB/s; the summary must exclude it.
	if m.AvgIBMBs > 60 {
		t.Fatalf("init not excluded from summary: %.1f MB/s", m.AvgIBMBs)
	}
	if m.IWS.Points[0].T > 1.5 {
		t.Fatal("series does not start at t=0")
	}
}

func TestMeasureUnknownApp(t *testing.T) {
	if _, err := Measure(MeasureConfig{App: "nope"}); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestProtect(t *testing.T) {
	p, err := Protect(ProtectConfig{App: "LU", Ranks: 2, Interval: 2 * des.Second, Periods: 8, TrackCow: true})
	if err != nil {
		t.Fatal(err)
	}
	if p.Checkpoints < 2 {
		t.Fatalf("checkpoints = %d", p.Checkpoints)
	}
	if p.TotalMB <= 0 || p.MeanPerCkptMB <= 0 || p.MaxCommitS <= 0 {
		t.Fatalf("volumes: %+v", p)
	}
	// First global is full: LU footprint ~16.6 MB x 2 ranks; later
	// deltas are smaller. Mean per checkpoint stays below 2x footprint.
	if p.MeanPerCkptMB > 70 {
		t.Fatalf("per-checkpoint volume %.1f MB implausible", p.MeanPerCkptMB)
	}
	if len(p.Globals) != p.Checkpoints {
		t.Fatal("globals mismatch")
	}
}

func TestProtectUnknownApp(t *testing.T) {
	if _, err := Protect(ProtectConfig{App: "nope"}); err == nil {
		t.Fatal("unknown app accepted")
	}
}

// TestShardedMeasureLeavesNoGoroutines: a sharded engine group's workers
// live for one Run, not for the life of the group, so a finished
// measurement leaves no goroutine — and none of the world it pins —
// behind. GOMAXPROCS is raised so the parallel path (the one that spawns
// workers) runs even on a single-processor host.
func TestShardedMeasureLeavesNoGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	before := runtime.NumGoroutine()
	seq, err := Measure(MeasureConfig{App: "LU", Ranks: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		m, err := Measure(MeasureConfig{App: "LU", Ranks: 8, Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		if m.AvgIBMBs != seq.AvgIBMBs || m.MaxIBMBs != seq.MaxIBMBs {
			t.Fatalf("sharded IB %v/%v != sequential %v/%v", m.AvgIBMBs, m.MaxIBMBs, seq.AvgIBMBs, seq.MaxIBMBs)
		}
	}
	// Run returns once every worker has signalled its exit; the runtime
	// may take a moment longer to retire the goroutine itself.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines before three sharded measurements, %d after", before, after)
	}
}
