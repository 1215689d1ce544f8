package experiments

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/chaos"
)

// A16's headline, pinned: every schedule's torn-and-replayed runs end
// bit-identical to their references, and each schedule exercises the
// failure class it names with non-zero lost-work accounting.
func TestChaosReplayAblation(t *testing.T) {
	rows, err := ChaosReplayAblation([]uint64{3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4", len(rows))
	}
	byName := map[string]ChaosRow{}
	for _, r := range rows {
		byName[r.Schedule] = r
		if r.Completed != r.Runs {
			t.Errorf("%s: %d/%d runs completed", r.Schedule, r.Completed, r.Runs)
		}
		if !r.BitExact {
			t.Errorf("%s: replay not bit-exact", r.Schedule)
		}
		if r.Failures == 0 {
			t.Errorf("%s: no failures injected", r.Schedule)
		}
		if r.ReplayedWork == 0 && r.MeanDowntime == 0 && r.WastedCheckpoints == 0 {
			t.Errorf("%s: zero lost-work accounting", r.Schedule)
		}
		if r.YoungInterval == 0 {
			t.Errorf("%s: Young interval not computed", r.Schedule)
		}
	}
	if byName["commit-crash"].AbortedCommits == 0 {
		t.Error("commit-crash schedule aborted no commits")
	}
	if byName["bitflip"].BitFlips == 0 {
		t.Error("bitflip schedule flipped no bits")
	}

	out := FormatChaos(rows)
	if !strings.Contains(out, "schedule") || !strings.Contains(out, "commit-crash") {
		t.Fatalf("table missing expected content:\n%s", out)
	}
	if strings.Contains(out, " no ") {
		t.Fatalf("table reports a non-exact schedule:\n%s", out)
	}
}

// The benchmark's heal-stencil and heal-multilevel schedules, as
// benchmark/workloads.go declares them.
const (
	healStencilSchedule = `
crash at 2s..12s count 2 jitter 300ms
commit-crash at 1s..20s count 1
storage-outage at 7s..8s
bitflip at 1200ms..15s count 4
`
	healMultilevelSchedule = `
domain-crash at 2500ms..30s domain d1
crash at 5s..8s count 1
`
)

// TestChaosWholeRunLinesDrawNothingAtCompile pins why a run's Faults and
// a validator's schedule compose: the three whole-run lines — the Poisson
// clock, the steady network and the parity flip — draw nothing from the
// compile stream, so inserting one anywhere in a schedule moves no other
// spec's instant or window. Every other field of the compiled plan stays
// identical, at every position, for the benchmark's heal schedules and
// every A16 schedule.
func TestChaosWholeRunLinesDrawNothingAtCompile(t *testing.T) {
	texts := []string{healStencilSchedule, healMultilevelSchedule}
	for _, sc := range chaosExperimentSchedules() {
		texts = append(texts, sc.Text)
	}
	lines := []string{
		"crash every exp 3s",
		"net loss 0.05 dup 0.01 jitter 200us seed 410",
		"parity-flip at 0s..30s count 8",
	}
	for _, text := range texts {
		base, err := chaos.ParseSchedule(text)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range lines {
			extra, err := chaos.ParseSchedule(line)
			if err != nil {
				t.Fatal(err)
			}
			for pos := 0; pos <= len(base.Specs); pos++ {
				specs := append(append(append([]chaos.Spec(nil), base.Specs[:pos]...), extra.Specs...), base.Specs[pos:]...)
				for _, seed := range []uint64{3, 5, 9} {
					want, err := base.Compile(seed)
					if err != nil {
						t.Fatal(err)
					}
					got, err := (&chaos.Schedule{Specs: specs}).Compile(seed)
					if err != nil {
						t.Fatalf("%q at %d: %v", line, pos, err)
					}
					// Take the line's own contribution back out.
					got.CrashMean, got.ParityFlips = 0, nil
					if got.Net != nil && want.Net != nil {
						got.Net.Seed, got.Net.DropRate, got.Net.DupRate, got.Net.JitterMax =
							want.Net.Seed, want.Net.DropRate, want.Net.DupRate, want.Net.JitterMax
					} else if got.Net != nil && len(got.Net.Windows) == 0 {
						got.Net = nil
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%q at position %d, seed %d moved the plan:\n got %+v\nwant %+v", line, pos, seed, got, want)
					}
				}
			}
		}
	}
}
