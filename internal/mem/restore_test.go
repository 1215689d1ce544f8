package mem

import (
	"bytes"
	"errors"
	"testing"
)

func TestMapAt(t *testing.T) {
	s := NewAddressSpace(Config{PageSize: 4096})
	r, err := s.MapAt(0x10000, 3*4096, Mmap)
	if err != nil {
		t.Fatal(err)
	}
	if r.Start() != 0x10000 || r.Size() != 3*4096 || r.Kind() != Mmap {
		t.Fatalf("region: %#x %d %v", r.Start(), r.Size(), r.Kind())
	}
	if s.Find(0x10000) != r {
		t.Fatal("MapAt region not findable")
	}
	// Size rounds up to pages.
	r2, err := s.MapAt(0x40000, 100, Data)
	if err != nil || r2.Size() != 4096 {
		t.Fatalf("rounding: %v %d", err, r2.Size())
	}
}

func TestMapAtValidation(t *testing.T) {
	s := NewAddressSpace(Config{PageSize: 4096})
	if _, err := s.MapAt(0x10001, 4096, Mmap); !errors.Is(err, ErrBadRange) {
		t.Fatalf("unaligned MapAt: %v", err)
	}
	if _, err := s.MapAt(0x10000, 0, Mmap); !errors.Is(err, ErrBadRange) {
		t.Fatalf("zero-size MapAt: %v", err)
	}
	// A range that wraps past the top of the address space, or ends
	// exactly there, must fail; so must a size that wraps when rounded.
	top := ^uint64(0) &^ 4095
	for _, c := range []struct{ start, size uint64 }{{top, 2 * 4096}, {top, 4096}, {0x10000, ^uint64(0)}} {
		if _, err := s.MapAt(c.start, c.size, Mmap); !errors.Is(err, ErrBadRange) {
			t.Errorf("wrapping MapAt(%#x, %#x): %v", c.start, c.size, err)
		}
	}
	s.MapAt(0x10000, 4*4096, Mmap)
	// Overlap in every configuration must fail.
	for _, start := range []uint64{0x10000, 0x11000, 0xf000, 0x13000} {
		if _, err := s.MapAt(start, 2*4096, Mmap); err == nil {
			t.Errorf("overlapping MapAt at %#x accepted", start)
		}
	}
	// Adjacent (non-overlapping) is fine.
	if _, err := s.MapAt(0x14000, 4096, Mmap); err != nil {
		t.Fatalf("adjacent MapAt rejected: %v", err)
	}
}

// TestMapAtTakesItsRangeFromTheFreeList: a range MapAt maps is no longer
// free, so Mmap never places a second live arena on it. MapAt over a
// whole freed arena drops its span; inside one, it trims or splits the
// span and Mmap still reuses what is left, first fit.
func TestMapAtTakesItsRangeFromTheFreeList(t *testing.T) {
	const ps = 4096
	for _, c := range []struct {
		name       string
		freed      uint64 // size of the arena mapped and unmapped first
		at, size   uint64 // MapAt's offset into it and size
		next       []uint64
		wantOffset []int64 // each next Mmap's offset into the freed arena; -1: fresh memory
	}{
		{"whole", 2 * ps, 0, 2 * ps, []uint64{ps}, []int64{-1}},
		{"head", 4 * ps, 0, ps, []uint64{3 * ps, ps}, []int64{ps, -1}},
		{"tail", 4 * ps, 3 * ps, ps, []uint64{3 * ps, ps}, []int64{0, -1}},
		{"middle", 4 * ps, ps, ps, []uint64{ps, 2 * ps, ps}, []int64{0, 2 * ps, -1}},
	} {
		s := NewAddressSpace(Config{PageSize: ps, Phantom: true})
		a, _ := s.Mmap(c.freed)
		base := a.Start()
		if err := s.Munmap(a); err != nil {
			t.Fatal(err)
		}
		if _, err := s.MapAt(base+c.at, c.size, Mmap); err != nil {
			t.Fatalf("%s: MapAt: %v", c.name, err)
		}
		for i, size := range c.next {
			r, err := s.Mmap(size)
			if err != nil {
				t.Fatalf("%s: Mmap(%d): %v", c.name, size, err)
			}
			regs := s.Regions()
			for j := 1; j < len(regs); j++ {
				if regs[j-1].End() > regs[j].Start() {
					t.Fatalf("%s: Mmap(%d) at %#x: live regions [%#x, %#x) and [%#x, %#x) overlap",
						c.name, size, r.Start(), regs[j-1].Start(), regs[j-1].End(), regs[j].Start(), regs[j].End())
				}
			}
			if fresh := r.Start() >= base+c.freed; c.wantOffset[i] < 0 != fresh || !fresh && int64(r.Start()-base) != c.wantOffset[i] {
				t.Errorf("%s: Mmap(%d) at offset %d of the freed arena, want %d (-1: past it)", c.name, size, int64(r.Start()-base), c.wantOffset[i])
			}
		}
	}
}

func TestMapAtMmapAdvancesAllocator(t *testing.T) {
	s := NewAddressSpace(Config{PageSize: 4096})
	// Restore an mmap region, then a fresh Mmap must not collide.
	a, _ := s.Mmap(4096)
	hi := a.End() + 16*4096
	if _, err := s.MapAt(hi, 4096, Mmap); err != nil {
		t.Fatal(err)
	}
	b, err := s.Mmap(4096)
	if err != nil {
		t.Fatal(err)
	}
	if b.Start() >= hi && b.Start() < hi+4096 {
		t.Fatal("fresh mmap collided with restored region")
	}
}

// TestMapAtAnyKindAdvancesAllocator: a region of any kind mapped at the
// bump pointer moves it on, so the next Mmap is not placed inside it.
func TestMapAtAnyKindAdvancesAllocator(t *testing.T) {
	const ps = 4096
	s := NewAddressSpace(Config{PageSize: ps, Phantom: true})
	a, err := s.Mmap(ps)
	if err != nil {
		t.Fatal(err)
	}
	bss, err := s.MapAt(a.End(), ps, BSS)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Mmap(ps)
	if err != nil {
		t.Fatal(err)
	}
	if b.Start() < bss.End() && bss.Start() < b.End() {
		t.Fatalf("Mmap after MapAt(%#x, BSS) returned %#x, inside the BSS region", bss.Start(), b.Start())
	}
}

func TestPeekAndLoadPage(t *testing.T) {
	s := NewAddressSpace(Config{PageSize: 4096})
	r, _ := s.Mmap(2 * 4096)
	if r.PeekPage(0) != nil {
		t.Fatal("untouched page not nil")
	}
	s.Write(r.Start(), []byte{1, 2, 3})
	pd := r.PeekPage(0)
	if pd == nil || pd[0] != 1 || pd[2] != 3 {
		t.Fatalf("PeekPage: %v", pd[:4])
	}
	// LoadPage bypasses protection and faults.
	l := NewDirtyLog(s)
	l.OnFault = func(*Region, uint64, uint64) { t.Fatal("LoadPage delivered a fault") }
	l.Open()
	data := bytes.Repeat([]byte{9}, 4096)
	r.LoadPage(1, data)
	if !r.Protected(r.PageAddr(1)) {
		t.Fatal("LoadPage changed protection")
	}
	got := r.PeekPage(1)
	if !bytes.Equal(got, data) {
		t.Fatal("LoadPage contents")
	}
	if s.Faults() != 0 {
		t.Fatalf("LoadPage delivered %d faults", s.Faults())
	}
}

func TestLoadPageValidation(t *testing.T) {
	s := NewAddressSpace(Config{PageSize: 4096})
	r, _ := s.Mmap(4096)
	defer func() {
		if recover() == nil {
			t.Fatal("short LoadPage did not panic")
		}
	}()
	r.LoadPage(0, []byte{1, 2})
}

func TestPhantomPeekLoadPanic(t *testing.T) {
	s := NewAddressSpace(Config{PageSize: 4096, Phantom: true})
	r, _ := s.Mmap(4096)
	for name, fn := range map[string]func(){
		"PeekPage": func() { r.PeekPage(0) },
		"LoadPage": func() { r.LoadPage(0, make([]byte, 4096)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on phantom did not panic", name)
				}
			}()
			fn()
		}()
	}
}
