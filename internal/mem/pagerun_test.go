package mem

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
)

// oracleWrite and oracleRead are AddressSpace.Write and Read as they
// were before they became a PageRun — their own page walk, fault first
// (the one-bit case of faultWord), then a copy of that page alone — kept
// as the reference the accessor is compared against.
func oracleWrite(s *AddressSpace, addr uint64, data []byte) error {
	n := uint64(len(data))
	if n == 0 {
		return nil
	}
	r, err := s.checkRange(addr, n)
	if err != nil {
		return err
	}
	ps := s.cfg.PageSize
	for off := uint64(0); off < n; {
		chunk := min(n-off, (addr+off+ps)&^(ps-1)-(addr+off))
		if idx := r.PageIndex(addr + off); r.Protected(addr+off) && !s.faultWord(r, idx/64, 1<<(idx%64)) {
			return fmt.Errorf("%w: write to %#x", ErrSegv, addr+off)
		}
		if !s.cfg.Phantom {
			copy(r.store(addr+off, chunk), data[off:off+chunk])
		}
		off += chunk
	}
	s.writeBytes += n
	return nil
}

func oracleRead(s *AddressSpace, addr uint64, buf []byte) error {
	n := uint64(len(buf))
	if n == 0 {
		return nil
	}
	r, err := s.checkRange(addr, n)
	if err != nil {
		return err
	}
	if s.cfg.Phantom {
		clear(buf)
		return nil
	}
	ps := s.cfg.PageSize
	for off := uint64(0); off < n; {
		chunk := min(n-off, (addr+off+ps)&^(ps-1)-(addr+off))
		po := (addr + off) & (ps - 1)
		if pd := r.PeekPage(r.PageIndex(addr + off)); pd != nil {
			copy(buf[off:off+chunk], pd[po:po+chunk])
		} else {
			clear(buf[off : off+chunk])
		}
		off += chunk
	}
	return nil
}

// storeThrough and loadThrough are what a PageRun consumer writes: the
// store (load) of data, through whatever chunks the run lends. They
// also check the lend contract — one chunk, the whole range unless the
// store died, that cannot be appended past its end; a phantom space
// lends nothing and a backed one never lends nil.
func storeThrough(t *testing.T, s *AddressSpace, addr uint64, data []byte) error {
	t.Helper()
	run, err := s.StoreRun(addr, uint64(len(data)))
	if err != nil {
		return err
	}
	chunks := 0
	for b, n := run.Next(); n > 0; b, n = run.Next() {
		switch {
		case s.Phantom() && b != nil:
			t.Fatalf("phantom store run lent %d bytes", len(b))
		case !s.Phantom() && (len(b) != n || cap(b) != n):
			t.Fatalf("store run lent len %d cap %d for a %d-byte chunk", len(b), cap(b), n)
		case n > len(data):
			t.Fatalf("store run lent %d bytes, %d left in the range", n, len(data))
		case chunks > 0:
			t.Fatalf("store run lent a second chunk of %d bytes", n)
		}
		chunks++
		copy(b, data)
		data = data[n:]
	}
	if run.Err() == nil && len(data) != 0 {
		t.Fatalf("store run ended %d bytes short", len(data))
	}
	return run.Err()
}

func loadThrough(t *testing.T, s *AddressSpace, addr uint64, buf []byte) error {
	t.Helper()
	run, err := s.LoadRun(addr, uint64(len(buf)))
	if err != nil {
		return err
	}
	for b, n := run.Next(); n > 0; b, n = run.Next() {
		if (b != nil) == s.Phantom() || b != nil && (len(b) != len(buf) || cap(b) != len(buf)) || n != len(buf) {
			t.Fatalf("load run lent len %d cap %d (nil %v) for %d of %d bytes (phantom %v)", len(b), cap(b), b == nil, n, len(buf), s.Phantom())
		}
		if b != nil {
			copy(buf, b)
		} else {
			clear(buf[:n])
		}
		buf = buf[n:]
	}
	if len(buf) != 0 || run.Err() != nil {
		t.Fatalf("load run ended %d bytes short, err %v", len(buf), run.Err())
	}
	return nil
}

// runRig is one address space and one region of it under an open dirty
// log. While the rig is stuck the log does not record the region, so a
// fault on any protected page of it is unhandled — the write dies with
// ErrSegv and the page stays protected; otherwise every fault is
// recorded and unprotects its page. The region starts never protected.
// Two rigs given the same script must end up alike.
type runRig struct {
	s      *AddressSpace
	r      *Region
	log    *DirtyLog
	faults []uint64 // the page of every fault the log recorded, in order
}

func newRunRig(ps uint64, phantom bool, pages uint64) *runRig {
	g := &runRig{s: NewAddressSpace(Config{PageSize: ps, Phantom: phantom})}
	g.r, _ = g.s.Mmap(pages * ps)
	g.log = NewDirtyLog(g.s)
	g.log.OnFault = func(_ *Region, w, m uint64) { g.faults = appendPages(g.faults, w, m) }
	g.log.Open()
	g.r.unprotectAll()
	return g
}

// stick makes the log stop (or resume) recording the rig's region.
func (g *runRig) stick(stuck bool) {
	g.r.recomputable = stuck
	g.log.lastR, g.log.lastSet = nil, nil
}

func (g *runRig) state() string {
	var prot, never []uint64
	for idx := uint64(0); idx < g.r.Pages(); idx++ {
		if g.r.Protected(g.r.PageAddr(idx)) {
			prot = append(prot, idx)
		}
		if !g.s.Phantom() && g.r.PeekPage(idx) == nil {
			never = append(never, idx)
		}
	}
	return fmt.Sprintf("region %#x faults %d written %d silent %d digest %x protected %v never written %v faulted pages %v",
		g.r.Start(), g.s.Faults(), g.s.WrittenBytes(), g.s.SilentDirtyBytes(), g.s.Digest(nil), prot, never, g.faults)
}

// remap unmaps the rig's region and maps a new one of the same size,
// which reuses its address and starts with no page written.
func (g *runRig) remap(t *testing.T) {
	t.Helper()
	start := g.r.Start()
	if err := g.s.Munmap(g.r); err != nil {
		t.Fatal(err)
	}
	r, err := g.s.Mmap(g.r.Size())
	if err != nil || r.Start() != start {
		t.Fatalf("re-Mmap at %#x: %v", start, err)
	}
	for idx := uint64(0); idx < r.Pages() && !g.s.Phantom(); idx++ {
		if r.PeekPage(idx) != nil {
			t.Fatalf("page %d of a re-mapped region reads as written", idx)
		}
	}
	g.r = r
}

// TestPageRunMatchesOracle: the same random script — protect, DMA,
// CPU stores and reads that start mid-page, end mid-page and span
// several pages, some dying on a stuck page (the one protected page of
// a region the log does not record), restores' LoadPage (all-zero pages
// too) and an unmap with a re-map at the reused address — run through
// the old page-by-page Write/Read on one space and through PageRuns on
// another leaves every observable alike: contents (Digest and the bytes
// read back), Faults, WrittenBytes, silent bytes, protection bits, the
// pages PeekPage reports never written and the recorded fault sequence,
// page by page.
func TestPageRunMatchesOracle(t *testing.T) {
	for _, ps := range []uint64{8, 256, 4096} {
		for _, phantom := range []bool{false, true} {
			for seed := uint64(0); seed < 10; seed++ {
				rng := rand.New(rand.NewPCG(seed, ps))
				old, run := newRunRig(ps, phantom, 12), newRunRig(ps, phantom, 12)
				for step := 0; step < 120; step++ {
					first := rng.Uint64N(old.r.Pages())
					last := min(first+rng.Uint64N(4), old.r.Pages()-1)
					off := rng.Uint64N(ps)
					n := (last-first)*ps + 1 + rng.Uint64N(ps-off)
					rel := first*ps + off
					where := fmt.Sprintf("page size %d phantom %v seed %d step %d", ps, phantom, seed, step)
					switch op := rng.IntN(12); {
					case op < 5:
						data := make([]byte, n)
						for i := range data {
							data[i] = byte(rng.Uint32())
						}
						errOld := oracleWrite(old.s, old.r.Start()+rel, data)
						errRun := storeThrough(t, run.s, run.r.Start()+rel, data)
						if errors.Is(errOld, ErrSegv) != errors.Is(errRun, ErrSegv) || fmt.Sprint(errOld) != fmt.Sprint(errRun) {
							t.Fatalf("%s: oracle write %v, store run %v", where, errOld, errRun)
						}
					case op < 7:
						got, want := make([]byte, n), make([]byte, n)
						if err := oracleRead(old.s, old.r.Start()+rel, want); err != nil {
							t.Fatal(err)
						}
						if err := loadThrough(t, run.s, run.r.Start()+rel, got); err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(got, want) {
							t.Fatalf("%s: load run read different bytes", where)
						}
					case op == 7:
						stick, pg := rng.IntN(2) == 0, rng.Uint64N(old.r.Pages())
						for _, g := range []*runRig{old, run} {
							g.stick(stick)
							if stick {
								g.r.unprotectAll()
								g.r.SetProtected(g.r.PageAddr(pg), true)
							} else {
								g.r.ProtectAll()
							}
						}
					case op == 8:
						for _, g := range []*runRig{old, run} {
							if _, err := g.s.WriteRangeDirect(g.r.Start()+rel, n); err != nil {
								t.Fatal(err)
							}
						}
					case op == 9:
						for _, g := range []*runRig{old, run} {
							g.stick(false)
							g.s.ReplaySilent()
						}
					case op == 10 && !phantom:
						data := make([]byte, ps)
						if rng.IntN(2) == 0 {
							for i := range data {
								data[i] = byte(rng.Uint32())
							}
						}
						copy(old.r.store(old.r.PageAddr(first), ps), data)
						run.r.LoadPage(first, data)
					default:
						for _, g := range []*runRig{old, run} {
							g.remap(t)
						}
					}
					if a, b := old.state(), run.state(); a != b {
						t.Fatalf("%s:\n oracle   %s\n page run %s", where, a, b)
					}
				}
				if old.s.Faults() == 0 || old.s.WrittenBytes() == 0 {
					t.Fatalf("page size %d seed %d: the script never faulted or never wrote", ps, seed)
				}
			}
		}
	}
}

// TestStoreRunSegvKeepsEarlierPages spells out the partial state a
// store that dies midway leaves, the one Write always left: pages
// before the stuck one are lent, stored and unprotected, the stuck page
// got its fault and stays protected, later pages are untouched, and
// none of the bytes count as written.
func TestStoreRunSegvKeepsEarlierPages(t *testing.T) {
	g := newRunRig(256, false, 12)
	g.r.ProtectAll()
	if err := g.s.Write(g.r.PageAddr(1)-1, []byte{0, 0}); err != nil { // pages 0 and 1 fault and are recorded
		t.Fatal(err)
	}
	g.stick(true) // page 2 is stuck
	written := g.s.WrittenBytes()
	data := bytes.Repeat([]byte{0xAB}, 4*256)
	run, _ := g.s.StoreRun(g.r.Start()+10, uint64(len(data)))
	var lens []int
	for b, n := run.Next(); n > 0; b, n = run.Next() {
		copy(b, data)
		data = data[n:]
		lens = append(lens, n)
	}
	err := run.Err()
	if !errors.Is(err, ErrSegv) || !strings.HasSuffix(err.Error(), fmt.Sprintf("%#x", g.r.PageAddr(2))) {
		t.Fatalf("store over a stuck page: %v, want ErrSegv at %#x", err, g.r.PageAddr(2))
	}
	if !slices.Equal(lens, []int{2*256 - 10}) {
		t.Fatalf("store run lent chunks %v, want the %d bytes before the stuck page", lens, 2*256-10)
	}
	if !slices.Equal(g.faults, []uint64{0, 1}) || g.s.Faults() != 3 {
		t.Fatalf("recorded pages %v, space %d faults; want [0 1], 3 (the stuck page's too)", g.faults, g.s.Faults())
	}
	if g.s.WrittenBytes() != written {
		t.Fatalf("a store that died counted %d bytes", g.s.WrittenBytes()-written)
	}
	for idx, want := range []bool{false, false, true, true} {
		if g.r.Protected(g.r.PageAddr(uint64(idx))) != want {
			t.Fatalf("page %d protected = %v, want %v", idx, !want, want)
		}
	}
	if p := g.r.PeekPage(0); p[9] != 0 || p[10] != 0xAB || g.r.PeekPage(1)[255] != 0xAB {
		t.Fatal("pages before the stuck one were not stored")
	}
	if g.r.PeekPage(2) != nil || g.r.PeekPage(3) != nil {
		t.Fatal("the stuck page or one after it was marked written")
	}
	// A run that ended in ErrSegv stays ended.
	run, _ = g.s.StoreRun(g.r.PageAddr(2), 8)
	if _, n := run.Next(); n != 0 || !errors.Is(run.Err(), ErrSegv) {
		t.Fatalf("first Next on a stuck page lent %d bytes, err %v", n, run.Err())
	}
	if _, n := run.Next(); n != 0 || g.s.Faults() != 4 {
		t.Fatalf("Next after ErrSegv lent %d bytes, %d faults delivered (want 0, 4)", n, g.s.Faults())
	}
}

// TestLoadRunNeverMaterialises: reading lends the range as one chunk —
// zeros where pages were never written, of a region never touched too —
// without faulting and without marking a page written: Digest's
// zero-page equivalence and PeekPage's nil both depend on it.
func TestLoadRunNeverMaterialises(t *testing.T) {
	s := NewAddressSpace(Config{PageSize: 256})
	r, _ := s.Mmap(4 * 256)
	fresh, _ := s.Mmap(2 * 256)
	r.ProtectAll()
	if err := s.Write(r.PageAddr(1)+5, []byte{1, 2, 3}); !errors.Is(err, ErrSegv) {
		t.Fatalf("write with no log open: %v", err)
	}
	r.SetProtected(r.PageAddr(1), false)
	if err := s.Write(r.PageAddr(1)+5, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	faults, digest := s.Faults(), s.Digest(nil)
	for _, c := range []struct {
		r    *Region
		addr uint64
		n    int
	}{{r, r.Start() + 200, 3 * 256}, {fresh, fresh.Start() + 3, 2*256 - 3}} {
		run, err := s.LoadRun(c.addr, uint64(c.n))
		if err != nil {
			t.Fatal(err)
		}
		want := make([]byte, c.n)
		if c.r == r {
			copy(want[256-200+5:], []byte{1, 2, 3})
		}
		var lens []int
		for b, n := run.Next(); n > 0; b, n = run.Next() {
			lens = append(lens, n)
			if !bytes.Equal(b, want) {
				t.Fatalf("load run at %#x lent % x…", c.addr, b[:8])
			}
		}
		if !slices.Equal(lens, []int{c.n}) {
			t.Fatalf("load run at %#x lent chunks %v, want one of %d bytes", c.addr, lens, c.n)
		}
	}
	if s.Faults() != faults || r.PeekPage(0) != nil || r.PeekPage(2) != nil || r.PeekPage(3) != nil ||
		fresh.PeekPage(0) != nil || fresh.PeekPage(1) != nil || s.Digest(nil) != digest {
		t.Fatal("a load run faulted or marked a page written")
	}
}

// TestPageRunDoesNotAllocate: the cursor is a value. A store and a load
// over warm pages, protected or not, allocate nothing.
func TestPageRunDoesNotAllocate(t *testing.T) {
	s := NewAddressSpace(Config{PageSize: 4096})
	r, _ := s.Mmap(8 * 4096)
	NewDirtyLog(s).Open()
	sweep := func() {
		r.ProtectAll()
		run, err := s.StoreRun(r.Start()+100, 5*4096)
		if err != nil {
			t.Fatal(err)
		}
		for b, n := run.Next(); n > 0; b, n = run.Next() {
			b[0] = 1
		}
		if run.Err() != nil {
			t.Fatal(run.Err())
		}
		run, _ = s.LoadRun(r.Start()+100, 5*4096)
		for b, n := run.Next(); n > 0; b, n = run.Next() {
			sinkByte += b[0]
		}
	}
	sweep()
	if n := testing.AllocsPerRun(50, sweep); n != 0 {
		t.Fatalf("%v allocations per store+load run over warm pages, want 0", n)
	}
}

var sinkByte byte

// drain walks a run to its end without touching what it lends.
func drain(run PageRun, err error) error {
	if err != nil {
		return err
	}
	for _, n := run.Next(); n > 0; _, n = run.Next() {
	}
	return run.Err()
}

// TestRangeCheckDoesNotWrap: every ranged entry point shares one check,
// and a length that wraps addr+n past zero must fail it like any other
// range that leaves the region — with the typed error, before any fault
// is delivered or byte counted.
func TestRangeCheckDoesNotWrap(t *testing.T) {
	const ps = 4096
	ops := []struct {
		name   string
		sliced bool // takes a []byte, so 2⁶⁴-sized ranges cannot be expressed
		do     func(s *AddressSpace, addr, n uint64) error
	}{
		{"Write", true, func(s *AddressSpace, addr, n uint64) error { return s.Write(addr, make([]byte, n)) }},
		{"Read", true, func(s *AddressSpace, addr, n uint64) error { return s.Read(addr, make([]byte, n)) }},
		{"WriteDirect", true, func(s *AddressSpace, addr, n uint64) error {
			_, err := s.WriteDirect(addr, make([]byte, n))
			return err
		}},
		{"WriteRange", false, func(s *AddressSpace, addr, n uint64) error { return s.WriteRange(addr, n) }},
		{"WriteRangeDirect", false, func(s *AddressSpace, addr, n uint64) error {
			_, err := s.WriteRangeDirect(addr, n)
			return err
		}},
		{"StoreRun", false, func(s *AddressSpace, addr, n uint64) error { return drain(s.StoreRun(addr, n)) }},
		{"LoadRun", false, func(s *AddressSpace, addr, n uint64) error { return drain(s.LoadRun(addr, n)) }},
	}
	for _, phantom := range []bool{false, true} {
		for _, op := range ops {
			s := NewAddressSpace(Config{PageSize: ps, Phantom: phantom})
			r, _ := s.Mmap(2 * ps)
			NewDirtyLog(s).Open()
			const off = ps
			addr, fit := r.Start()+off, r.Size()-off
			for _, c := range []struct {
				n  uint64
				ok bool
			}{{0, true}, {fit, true}, {fit + 1, false}, {-addr, false}, {^uint64(0) - off + 1, false}} {
				if op.sliced && c.n > fit+1 {
					continue
				}
				r.ProtectAll()
				faults, written := s.Faults(), s.WrittenBytes()
				err := func() (err error) {
					defer func() {
						if p := recover(); p != nil {
							err = fmt.Errorf("panic: %v", p)
						}
					}()
					return op.do(s, addr, c.n)
				}()
				if c.ok {
					if err != nil {
						t.Errorf("%s(phantom %v) of %d bytes that fit: %v", op.name, phantom, c.n, err)
					}
					continue
				}
				if !errors.Is(err, ErrBadRange) {
					t.Errorf("%s(phantom %v) of %#x bytes at offset %d of an %d-byte region: %v, want ErrBadRange", op.name, phantom, c.n, off, r.Size(), err)
				}
				if s.Faults() != faults || s.WrittenBytes() != written {
					t.Errorf("%s(phantom %v) of %#x bytes: a refused range delivered %d faults and counted %d bytes", op.name, phantom, c.n, s.Faults()-faults, s.WrittenBytes()-written)
				}
			}
		}
	}
}
