package mem

import (
	"slices"
	"testing"
)

// The facade's handler sees each faulting page once, in ascending
// order, already unprotected, and the write succeeds.
func TestSetFaultHandlerFacade(t *testing.T) {
	s := NewAddressSpace(Config{PageSize: 256, Phantom: true})
	r, _ := s.Mmap(130 * 256)
	var pages []uint64
	s.SetFaultHandler(func(f Fault) {
		if f.Region != r || f.Region.Protected(f.Page) {
			t.Fatalf("handed page %#x of %v, protected %v", f.Page, f.Region, f.Region.Protected(f.Page))
		}
		pages = append(pages, f.Page)
	})
	if err := s.WriteRange(r.Start()+10, r.Size()-10); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteRange(r.Start(), r.Size()); err != nil {
		t.Fatal(err)
	}
	var want []uint64
	for idx := range r.Pages() {
		want = append(want, r.PageAddr(idx))
	}
	if !slices.Equal(pages, want) || s.Faults() != r.Pages() {
		t.Fatalf("handler saw %d pages (%d faults), want each of %d once in order", len(pages), s.Faults(), r.Pages())
	}
}
