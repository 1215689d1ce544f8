package mem

import (
	"bytes"
	"slices"
	"testing"
)

func TestWriteDirectMarksSilentOnProtectedPages(t *testing.T) {
	s := newBacked(t)
	r := s.MapData(4 * 4096)
	r.ProtectAll()

	data := bytes.Repeat([]byte{0xAB}, 4096+512)
	silent, err := s.WriteDirect(r.Start()+2048, data)
	if err != nil {
		t.Fatal(err)
	}
	if silent != uint64(len(data)) {
		t.Fatalf("silent bytes = %d, want %d (all pages protected)", silent, len(data))
	}
	if s.Faults() != 0 {
		t.Fatalf("DMA write delivered %d faults, want 0", s.Faults())
	}
	// The 4608-byte write at offset 2048 spans pages 0 and 1; both
	// must be silent and still protected.
	if got := r.SilentPages(); got != 2 {
		t.Fatalf("SilentPages = %d, want 2", got)
	}
	if !r.Protected(r.Start() + 2048) {
		t.Fatal("DMA write must not unprotect the page")
	}
	if want := uint64(2 * 4096); s.SilentDirtyBytes() != want {
		t.Fatalf("SilentDirtyBytes = %d, want %d", s.SilentDirtyBytes(), want)
	}
	// Contents landed despite the protection.
	buf := make([]byte, len(data))
	if err := s.Read(r.Start()+2048, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("DMA-written contents did not land")
	}
}

func TestWriteDirectUnprotectedIsNotSilent(t *testing.T) {
	s := newBacked(t)
	r := s.MapData(2 * 4096)
	silent, err := s.WriteDirect(r.Start(), []byte{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if silent != 0 {
		t.Fatalf("silent bytes = %d on unprotected page, want 0", silent)
	}
	if got := s.SilentDirtyBytes(); got != 0 {
		t.Fatalf("SilentDirtyBytes = %d, want 0", got)
	}
}

func TestWriteRangeDirectCountsPartialPages(t *testing.T) {
	s := newBacked(t)
	r := s.MapData(4 * 4096)
	r.ProtectAll()
	// Unprotect page 1 so only pages 0 and 2 of the span are silent.
	r.SetProtected(r.Start()+4096, false)

	silent, err := s.WriteRangeDirect(r.Start()+1024, 2*4096)
	if err != nil {
		t.Fatal(err)
	}
	// Page 0 contributes 4096-1024 bytes, page 1 nothing, page 2 the
	// remaining 1024.
	if want := uint64(4096 - 1024 + 1024); silent != want {
		t.Fatalf("silent bytes = %d, want %d", silent, want)
	}
	if got := r.SilentPages(); got != 2 {
		t.Fatalf("SilentPages = %d, want 2", got)
	}
}

func TestFaultClearsSilent(t *testing.T) {
	s := newBacked(t)
	r := s.MapData(2 * 4096)
	r.ProtectAll()
	if _, err := s.WriteDirect(r.Start(), []byte{9}); err != nil {
		t.Fatal(err)
	}
	if r.SilentPages() != 1 {
		t.Fatal("expected one silent page after DMA write")
	}
	// A CPU write faults, the log unprotects, and the page is no longer
	// silent: the tracker has now seen it.
	NewDirtyLog(s).Open()
	if err := s.Write(r.Start()+1, []byte{7}); err != nil {
		t.Fatal(err)
	}
	if r.SilentPages() != 0 {
		t.Fatalf("SilentPages = %d after fault, want 0", r.SilentPages())
	}
}

func TestReplaySilentDeliversSuppressedFaults(t *testing.T) {
	s := newBacked(t)
	r := s.MapData(4 * 4096)
	var seen []uint64
	countFaults(s, &seen)
	if _, err := s.WriteRangeDirect(r.Start(), 3*4096); err != nil {
		t.Fatal(err)
	}
	pages := s.ReplaySilent()
	if pages != 3 {
		t.Fatalf("ReplaySilent = %d pages, want 3", pages)
	}
	if !slices.Equal(seen, []uint64{0, 1, 2}) || s.Faults() != 3 {
		t.Fatalf("log saw pages %v, space %d faults; want [0 1 2] (address order), 3", seen, s.Faults())
	}
	if r.ProtectedPages() != 1 {
		t.Fatalf("%d pages protected after replay, want 1 (the page the NIC missed)", r.ProtectedPages())
	}
	if s.SilentDirtyBytes() != 0 {
		t.Fatal("silent bitmap not cleared by replay")
	}
	// Idempotent: nothing left to replay.
	if again := s.ReplaySilent(); again != 0 {
		t.Fatalf("second ReplaySilent = %d, want 0", again)
	}
}

func TestReplaySilentWithoutHandlerUnprotects(t *testing.T) {
	s := newBacked(t)
	r := s.MapData(4096)
	r.ProtectAll()
	if _, err := s.WriteDirect(r.Start(), []byte{1}); err != nil {
		t.Fatal(err)
	}
	if pages := s.ReplaySilent(); pages != 1 {
		t.Fatalf("ReplaySilent = %d, want 1", pages)
	}
	if r.Protected(r.Start()) {
		t.Fatal("a replay no log records must unprotect the page, not leave it torn")
	}
}
