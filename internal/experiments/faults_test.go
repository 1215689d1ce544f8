package experiments

import (
	"strings"
	"testing"
)

func TestStorageFaultAblation(t *testing.T) {
	rows, err := StorageFaultAblation([]uint64{3, 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(faultScenarios()) {
		t.Fatalf("rows %d != scenarios %d", len(rows), len(faultScenarios()))
	}
	byName := func(name string, replicas int) FaultRow {
		for _, r := range rows {
			if r.Scenario == name && r.Replicas == replicas {
				return r
			}
		}
		t.Fatalf("no row %q x%d", name, replicas)
		return FaultRow{}
	}

	clean := byName("clean", 1)
	if clean.Completed != clean.Runs || !clean.BitExact || clean.Degraded != 0 {
		t.Fatalf("clean baseline: %+v", clean)
	}
	// Transient drops are fully absorbed by retries: same completion,
	// nonzero retry work, no degraded recoveries.
	transient := byName("transient", 1)
	if transient.Completed != transient.Runs || !transient.BitExact ||
		transient.Retries == 0 || transient.Degraded != 0 {
		t.Fatalf("transient row: %+v", transient)
	}
	// A single decaying sink forces verified-line fallbacks but every
	// completed run is still exact.
	decay1 := byName("decay", 1)
	if decay1.Completed == 0 || !decay1.BitExact || decay1.Degraded == 0 {
		t.Fatalf("single decay row: %+v", decay1)
	}
	// Mirroring the same decay recovers the clean efficiency by serving
	// reads from the healthy replica.
	decay2 := byName("decay", 2)
	if decay2.Completed != decay2.Runs || !decay2.BitExact {
		t.Fatalf("mirrored decay row: %+v", decay2)
	}
	if decay2.MeanEfficiency <= decay1.MeanEfficiency {
		t.Fatalf("mirroring did not help: %.3f vs %.3f",
			decay2.MeanEfficiency, decay1.MeanEfficiency)
	}
	// An unmirrored permanent outage is fatal — that is the point of
	// the mirror.
	outage1 := byName("outage", 1)
	if outage1.Completed != 0 || outage1.BitExact {
		t.Fatalf("unmirrored outage row: %+v", outage1)
	}
	outage2 := byName("outage+decay", 2)
	if outage2.Completed != outage2.Runs || !outage2.BitExact || outage2.Failovers == 0 {
		t.Fatalf("mirrored outage row: %+v", outage2)
	}
}

func TestFormatFaults(t *testing.T) {
	rows := []FaultRow{{
		Scenario: "decay", Replicas: 2,
		SweepStats: SweepStats{Runs: 3, Completed: 3, BitExact: true, MeanEfficiency: 0.7},
		Recoveries: 10, Degraded: 1, Retries: 42,
	}}
	out := FormatFaults(rows)
	for _, want := range []string{"scenario", "decay", "3/3", "yes", "70.0", "42"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}
