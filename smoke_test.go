package repro

// Build-and-run smoke tests for every runnable example: each is executed
// as a subprocess (the way a reader would run it) and its stdout is
// checked for the line that states its result — so a regression that
// breaks an example's build, crashes it, or silently flips its result to
// DIVERGED fails CI, not just the reader's first impression. The
// examples are also deadexport's roots (what they reach ships), which
// only means something if something runs them.

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runExample executes `go run ./examples/<name>` and returns its stdout.
func runExample(t *testing.T, name string) string {
	t.Helper()
	cmd := exec.Command("go", "run", "./examples/"+name)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run ./examples/%s: %v\n%s", name, err, out)
	}
	return string(out)
}

func TestExampleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("example smoke tests compile and run subprocesses")
	}
	cases := []struct {
		example string
		verdict string
	}{
		{"burst_aligned", "checkpointing between bursts eliminates all"},
		{"chaos_replay", "replay is BIT-EXACT"},
		{"ckpt_service", "service is LOSSLESS"},
		{"custom_app", "8.8x disk headroom"},
		{"failure_recovery", "recovery is EXACT"},
		{"flaky_network", "bit-identical result"},
		{"hardened_storage", "bit-identical result"},
		{"quickstart", "incremental checkpointing is FEASIBLE"},
		{"rdma_drain", "drain replay is BIT-EXACT"},
		{"sage_sweep", "2x memory needs 1.57x bandwidth"},
		{"self_healing", "bit-identical result"},
	}
	// Every example is run: a new one joins the table or fails here.
	dirs, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range dirs {
		if i >= len(cases) || d.Name() != cases[i].example {
			t.Fatalf("examples/%s has no row (in directory order) in the smoke table", d.Name())
		}
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.example, func(t *testing.T) {
			t.Parallel()
			out := runExample(t, tc.example)
			if !strings.Contains(out, tc.verdict) {
				t.Fatalf("%s output lacks %q:\n%s", tc.example, tc.verdict, out)
			}
			if strings.Contains(out, "DIVERG") {
				t.Fatalf("%s reports divergence:\n%s", tc.example, out)
			}
		})
	}
}
