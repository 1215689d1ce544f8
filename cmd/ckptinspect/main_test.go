package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ckpt"
)

// -verify proves every restore chain: a store whose rank 0 lost its full
// base still has a segment for every rank at every sequence, so it keeps
// a consistent recovery line, but none of rank 0's segments restores.
func TestVerifyRejectsChainWithoutBase(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-demo", "-dir", dir}, io.Discard); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-dir", dir, "-verify"}, &out); err != nil {
		t.Fatalf("intact demo store fails -verify: %v\n%s", err, out.String())
	}
	if err := os.Remove(filepath.Join(dir, "rank000", "seg000000")); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	err := run([]string{"-dir", dir, "-verify"}, &out)
	if err == nil {
		t.Fatalf("-verify passed a store with no full base for rank 0:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "NO verifiable recovery line") {
		t.Errorf("output names no missing line:\n%s", out.String())
	}
}

// -verify proves each segment's region table restorable: a demo segment
// rewritten so its first region wraps past the top of the address space
// still decodes, but its chain must fail and the report must name it.
func TestVerifyRejectsWrappingRegionTable(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-demo", "-dir", dir}, io.Discard); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "rank001", "seg000002")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := ckpt.DecodeSegment(data)
	if err != nil {
		t.Fatal(err)
	}
	seg.Regions[0].Start = -seg.PageSize
	if err := os.WriteFile(path, seg.Encode(), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	err = run([]string{"-dir", dir, "-verify"}, &out)
	if err == nil {
		t.Fatalf("-verify passed a wrapping region table:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "verify rank 1 seq 2: region 0") {
		t.Errorf("output does not name rank 1 seq 2's region table:\n%s", out.String())
	}
}
