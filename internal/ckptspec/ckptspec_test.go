package ckptspec

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/mem"
)

func sample() *Spec {
	return &Spec{
		Package: "repro/internal/kernels",
		Regions: []Region{
			{Name: "SSOR.work", Class: Recomputable, Reason: "staging scratch: written before read in every sweep"},
			{Name: "SSOR.u", Class: Must, Reason: "live across iterations"},
			{Name: "DistPut.arenas", Class: Unknown, Reason: "raw mem.Region arena"},
		},
	}
}

func TestEncodeCanonical(t *testing.T) {
	s := sample()
	enc := s.Encode()
	// Input order above is not sorted; Encode must canonicalise without
	// mutating the caller's slice.
	if s.Regions[0].Name != "SSOR.work" {
		t.Fatalf("Encode mutated caller's region order")
	}
	lines := strings.Split(strings.TrimSuffix(string(enc), "\n"), "\n")
	want := []string{
		"package repro/internal/kernels",
		"region DistPut.arenas unknown raw mem.Region arena",
		"region SSOR.u must live across iterations",
		"region SSOR.work recomputable staging scratch: written before read in every sweep",
	}
	if len(lines) != len(want)+1 || !strings.HasPrefix(lines[0], "# ckptspec v1") {
		t.Fatalf("unexpected encoding:\n%s", enc)
	}
	for i, w := range want {
		if lines[i+1] != w {
			t.Fatalf("line %d = %q, want %q", i+1, lines[i+1], w)
		}
	}
	if !bytes.Equal(enc, s.Encode()) {
		t.Fatalf("Encode not deterministic")
	}
}

func TestParseRoundTrip(t *testing.T) {
	enc := sample().Encode()
	got, err := Parse(enc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !bytes.Equal(got.Encode(), enc) {
		t.Fatalf("round trip mismatch:\n%s\nvs\n%s", got.Encode(), enc)
	}
	if r, ok := got.Lookup("SSOR.work"); !ok || r.Class != Recomputable {
		t.Fatalf("Lookup(SSOR.work) = %+v, %v", r, ok)
	}
	if _, ok := got.Lookup("nope"); ok {
		t.Fatalf("Lookup of absent name succeeded")
	}
}

func TestParseRejects(t *testing.T) {
	for _, bad := range []string{
		"",                                    // no package line
		"region X.y must why",                 // region without package
		"package a\npackage b",                // duplicate package
		"package a\nregion X.y sometimes why", // bad class
		"package a\nregion X.y must",          // missing reason
		"package a\nwhat is this",             // unknown directive
		"package a\nregion B.b must r\nregion A.a must r", // out of canonical order
		"package a\nregion A.a must r\nregion A.a must r", // duplicate name
	} {
		if _, err := Parse([]byte(bad)); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}
}

func TestClassProtected(t *testing.T) {
	if !Must.Protected() || !Unknown.Protected() || Recomputable.Protected() {
		t.Fatalf("Protected lattice wrong: must=%v unknown=%v recomputable=%v",
			Must.Protected(), Unknown.Protected(), Recomputable.Protected())
	}
	for _, c := range []Class{Must, Recomputable, Unknown} {
		back, err := ParseClass(c.String())
		if err != nil || back != c {
			t.Fatalf("ParseClass(%v.String()) = %v, %v", c, back, err)
		}
	}
}

func TestRecomputableSelection(t *testing.T) {
	sp := mem.NewAddressSpace(mem.Config{PageSize: 4096})
	r1, err := sp.Mmap(4096)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sp.Mmap(4096)
	if err != nil {
		t.Fatal(err)
	}
	s := sample()
	got := s.Apply([]Binding{
		{Name: "SSOR.u", Region: r1},
		{Name: "SSOR.work", Region: r2},
		{Name: "SSOR.work", Region: nil}, // unbound slot: skipped
		{Name: "unlisted.x", Region: r1}, // absent from spec: protected
	})
	if len(got) != 1 || got[0].Region != r2 {
		t.Fatalf("Apply = %+v, want just SSOR.work", got)
	}
	// Only the recomputable region is marked: a log watches r1, not r2.
	if l := mem.NewDirtyLog(sp); !l.Watches(r1) || l.Watches(r2) {
		t.Fatalf("after Apply a log watches r1 %v, r2 %v; want true, false", l.Watches(r1), l.Watches(r2))
	}
	var none *Spec
	if got := none.Apply([]Binding{{Name: "SSOR.work", Region: r1}}); got != nil {
		t.Fatalf("nil spec applied %+v", got)
	}
}
