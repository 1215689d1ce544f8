package main

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
)

// -fig resolves an application name to its trace before it looks for an
// artefact, so an application that shared a name or alias with an
// artefact would hide that artefact.
func TestAppNamesAreNotArtefacts(t *testing.T) {
	for _, app := range core.Apps() {
		if arts, err := experiments.Select(app); err == nil {
			t.Errorf("application %q also selects artefact %s", app, arts[0].Name)
		}
	}
}

func TestRunDispatch(t *testing.T) {
	o := experiments.RunOpts{Ranks: 2, Seed: 7}
	var b strings.Builder
	if err := run(&b, "LU", false, o); err != nil {
		t.Fatal(err)
	}
	if out := b.String(); !strings.HasPrefix(out, "time_s,iws_mb,ib_mbs,recv_mb,footprint_mb\n") ||
		!strings.Contains(out, "\napplication      : LU on 2 ranks, timeslice 1.000s\n") {
		t.Errorf("-fig LU printed no trace:\n%s", out)
	}

	b.Reset()
	if err := run(&b, "trends", true, o); err != nil {
		t.Fatal(err)
	}
	trends, err := experiments.Select("trends")
	if err != nil {
		t.Fatal(err)
	}
	want := "# Reproduction report (2 ranks, seed 7)\n\n## " + trends[0].Title + "\n\n```\n"
	if out := b.String(); !strings.HasPrefix(out, want) || !strings.HasSuffix(out, "```\n\n") {
		t.Errorf("-md -fig trends:\n%s", out)
	}

	if err := run(&b, "LU", true, o); err == nil {
		t.Error("-md accepted an application name")
	}
}
