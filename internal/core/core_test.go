package core

import (
	"testing"

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
	if len(m.IWS.Points) == 0 || len(m.IB.Points) == 0 {
		t.Fatal("series missing")
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
