package mem

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"math/rand/v2"
	"slices"
	"testing"
)

// The model the log is tested against, written the slow obvious way: one
// map entry per page, no bitmaps, no caches. For each log it is "the
// pages written since my last Reset that are watched and still mapped"
// — every log watches the regions the space does not mark recomputable; the protection bits are modelled too, because they are
// shared — a page faults when *any* log protected it since its last
// fault and a Close unprotects everything under every other log — and
// the fault counts depend on exactly that.
//
// A WriteRange hands the logs a bitmap word at a time, a Write or a
// store run a page at a time; each log's OnFault, its words expanded,
// must see the same pages, in ascending order, either way.
type page struct {
	r   *Region
	idx uint64
}

type refLog struct {
	log    *DirtyLog
	open   bool
	pages  map[page]bool // may hold pages of dead regions
	faults uint64

	// What the log's observers reported against what the model expects.
	seenFaults                  uint64
	gotSeq, wantSeq             []page // OnFault calls since the last check
	gotProtected, wantProtected uint64
	gotDropped, wantDropped     uint64
	gotMapEvents, wantMapEvents int
}

type refSpace struct {
	t            *testing.T
	s            *AddressSpace
	prot         map[page]bool
	silent       map[page]bool
	recomputable map[*Region]bool
	logs         []*refLog
	faults       uint64
	// Bytes written, CPU or NIC — the space's WrittenBytes.
	written uint64
}

func newRefSpace(t *testing.T, nLogs int) *refSpace {
	m := &refSpace{t: t, s: NewAddressSpace(Config{PageSize: 256}), prot: map[page]bool{}, silent: map[page]bool{}, recomputable: map[*Region]bool{}}
	for i := 0; i < nLogs; i++ {
		l := &refLog{log: NewDirtyLog(m.s), pages: map[page]bool{}}
		l.log.OnFault = func(r *Region, w, m uint64) {
			if m == 0 {
				t.Errorf("OnFault(%v word %d) with an empty mask", r.kind, w)
			}
			if r.wp[w]&m != 0 || l.log.Pages(r).Word(w)&m != m {
				t.Errorf("OnFault(%v word %d, %#x) before the pages were logged and unprotected", r.kind, w, m)
			}
			for ; m != 0; m &= m - 1 {
				l.seenFaults++
				l.gotSeq = append(l.gotSeq, page{r, w*64 + uint64(bits.TrailingZeros64(m))})
			}
		}
		l.log.OnMap = func(_ *Region, mapped bool, pages uint64) {
			l.gotMapEvents++
			if mapped {
				l.gotProtected += pages
			} else {
				l.gotDropped += pages
			}
		}
		m.logs = append(m.logs, l)
	}
	return m
}

func (m *refSpace) watches(r *Region) bool { return r.kind != Stack && !m.recomputable[r] }

func (m *refSpace) markRecomputable(r *Region) {
	m.recomputable[r] = true
	r.MarkRecomputable()
}

func (m *refSpace) protect() uint64 {
	var n uint64
	for _, r := range m.s.Regions() {
		if m.watches(r) {
			for idx := uint64(0); idx < r.Pages(); idx++ {
				m.prot[page{r, idx}] = true
			}
			n += r.Pages()
		}
	}
	return n
}

func (m *refSpace) open(l *refLog) {
	l.open = true
	if got, want := l.log.Open(), m.protect(); got != want {
		m.t.Fatalf("Open protected %d pages, model %d", got, want)
	}
}

func (m *refSpace) reset(l *refLog) {
	clear(l.pages)
	if got, want := l.log.Reset(), m.protect(); got != want {
		m.t.Fatalf("Reset protected %d pages, model %d", got, want)
	}
}

func (m *refSpace) close(l *refLog) {
	l.open = false
	clear(m.prot)
	l.log.Close()
}

// fault is one delivered write fault: every open log records the page
// of a watched region, and the page is writable again.
func (m *refSpace) fault(p page) {
	m.faults++
	delete(m.prot, p)
	delete(m.silent, p)
	for _, l := range m.logs {
		if l.open && m.watches(p.r) {
			l.pages[p] = true
			l.faults++
			l.wantSeq = append(l.wantSeq, p)
		}
	}
}

// write is a CPU write (dma false) or a NIC write of n bytes to pages
// [first, last].
func (m *refSpace) write(r *Region, first, last, n uint64, dma bool) {
	m.written += n
	for idx := first; idx <= last; idx++ {
		if p := (page{r, idx}); m.prot[p] {
			if dma {
				m.silent[p] = true
			} else {
				m.fault(p)
			}
		}
	}
}

func (m *refSpace) replaySilent() {
	n := uint64(len(m.silent))
	// In address order, as the space replays them.
	var ps []page
	for p := range m.silent {
		ps = append(ps, p)
	}
	slices.SortFunc(ps, func(a, b page) int {
		return cmp.Or(cmp.Compare(a.r.start, b.r.start), cmp.Compare(a.idx, b.idx))
	})
	for _, p := range ps {
		m.fault(p)
	}
	if got := m.s.ReplaySilent(); got != n {
		m.t.Fatalf("ReplaySilent replayed %d pages, model %d", got, n)
	}
}

// mapped and unmapped are the two map events, as the open logs see them.
func (m *refSpace) mapped(r *Region) {
	for _, l := range m.logs {
		if !l.open {
			continue
		}
		l.wantMapEvents++
		if m.watches(r) {
			for idx := uint64(0); idx < r.Pages(); idx++ {
				m.prot[page{r, idx}] = true
			}
			l.wantProtected += r.Pages()
		}
	}
}

func (m *refSpace) unmapped(r *Region) {
	m.forget(r)
	for _, l := range m.logs {
		if !l.open {
			continue
		}
		l.wantMapEvents++
		for p := range l.pages {
			if p.r == r {
				l.wantDropped++
				delete(l.pages, p)
			}
		}
	}
}

// forget drops the protection and silent state of r's pages.
func (m *refSpace) forget(r *Region) {
	for _, set := range []map[page]bool{m.prot, m.silent} {
		for p := range set {
			if p.r == r {
				delete(set, p)
			}
		}
	}
}

// check compares everything observable with the model.
func (m *refSpace) check(step string) {
	t := m.t
	t.Helper()
	live := m.s.Regions()
	for _, r := range live {
		if !r.armed && r.ProtectedPages() != 0 {
			t.Fatalf("%s: %v region at %#x has %d protected pages and is not armed", step, r.kind, r.start, r.ProtectedPages())
		}
		for idx := uint64(0); idx < r.Pages(); idx++ {
			if got, want := r.Protected(r.PageAddr(idx)), m.prot[page{r, idx}]; got != want {
				t.Fatalf("%s: %v page %d protected = %v, model %v", step, r.kind, idx, got, want)
			}
		}
	}
	if got, want := m.s.SilentDirtyBytes(), uint64(len(m.silent))*m.s.PageSize(); got != want {
		t.Fatalf("%s: %d silent bytes, model %d", step, got, want)
	}
	if got := m.s.WrittenBytes(); got != m.written {
		t.Fatalf("%s: %d bytes written, model %d", step, got, m.written)
	}
	if m.s.Faults() != m.faults {
		t.Fatalf("%s: space delivered %d faults, model %d", step, m.s.Faults(), m.faults)
	}
	for i, l := range m.logs {
		var count uint64
		for _, r := range live {
			var got, want []uint64
			if rs := l.log.Pages(r); rs != nil {
				for idx, ok := rs.NextSet(0); ok; idx, ok = rs.NextSet(idx + 1) {
					got = append(got, idx)
				}
			}
			for idx := uint64(0); idx < r.Pages(); idx++ {
				if l.pages[page{r, idx}] {
					want = append(want, idx)
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: log %d, %v region at %#x: pages %v, model %v", step, i, r.kind, r.start, got, want)
			}
			count += uint64(len(want))
		}
		if got := l.log.Count(); got != count {
			t.Fatalf("%s: log %d: Count %d, model %d", step, i, got, count)
		}
		if l.log.Faults() != l.faults || l.seenFaults != l.faults {
			t.Fatalf("%s: log %d: Faults %d, OnFault calls %d, model %d", step, i, l.log.Faults(), l.seenFaults, l.faults)
		}
		if !slices.Equal(l.gotSeq, l.wantSeq) {
			t.Fatalf("%s: log %d: OnFault saw pages %v, model %v", step, i, l.gotSeq, l.wantSeq)
		}
		l.gotSeq, l.wantSeq = l.gotSeq[:0], l.wantSeq[:0]
		if l.gotProtected != l.wantProtected || l.gotDropped != l.wantDropped || l.gotMapEvents != l.wantMapEvents {
			t.Fatalf("%s: log %d: OnMap reported %d events, %d pages protected, %d dropped; model %d, %d, %d", step, i,
				l.gotMapEvents, l.gotProtected, l.gotDropped, l.wantMapEvents, l.wantProtected, l.wantDropped)
		}
	}
}

// step performs one random operation on the space and the model.
func (m *refSpace) step(rng *rand.Rand) string {
	s, ps := m.s, m.s.PageSize()
	var data []*Region // writable data memory
	for _, r := range s.Regions() {
		if r.kind != Stack {
			data = append(data, r)
		}
	}
	pick := func() (r *Region, first, last uint64) {
		r = data[rng.IntN(len(data))]
		first = rng.Uint64N(r.Pages())
		last = min(first+rng.Uint64N(4), r.Pages()-1)
		return
	}
	must := func(err error) {
		if err != nil {
			m.t.Fatal(err)
		}
	}
	op := rng.IntN(18)
	switch {
	case op < 8 && len(data) > 0: // CPU writes, byte- and page-granular, and a read
		r, first, last := pick()
		off := rng.Uint64N(ps)
		n := (last-first)*ps + 1 + rng.Uint64N(ps-off)
		addr := r.PageAddr(first) + off
		switch {
		case op < 3:
			must(s.Write(addr, make([]byte, n)))
		case op < 5:
			must(s.WriteRange(addr, n))
		case op < 7: // a store through lent pages
			run, err := s.StoreRun(addr, n)
			must(err)
			var lent uint64
			for b, k := run.Next(); k > 0; b, k = run.Next() {
				if len(b) != k {
					m.t.Fatalf("store run lent %d bytes for a %d-byte chunk", len(b), k)
				}
				lent += uint64(k)
			}
			must(run.Err())
			if lent != n {
				m.t.Fatalf("store run lent %d of %d bytes", lent, n)
			}
		default: // a load: no log, bit or count may move
			must(drain(s.LoadRun(addr, n)))
			return fmt.Sprintf("load %v pages %d-%d", r.kind, first, last)
		}
		m.write(r, first, last, n, false)
		return fmt.Sprintf("write %v pages %d-%d", r.kind, first, last)
	case op < 10 && len(data) > 0: // NIC writes
		r, first, last := pick()
		n := (last - first + 1) * ps
		var err error
		if op == 8 {
			_, err = s.WriteDirect(r.PageAddr(first), make([]byte, n))
		} else {
			_, err = s.WriteRangeDirect(r.PageAddr(first), n)
		}
		must(err)
		m.write(r, first, last, n, true)
		return fmt.Sprintf("dma %v pages %d-%d", r.kind, first, last)
	case op == 10:
		m.replaySilent()
		return "replay silent"
	case op < 13:
		r, err := s.Mmap((1 + rng.Uint64N(8)) * ps)
		must(err)
		m.mapped(r)
		return fmt.Sprintf("mmap %d pages at %#x", r.Pages(), r.start)
	case op == 13:
		var arenas []*Region
		for _, r := range data {
			if r.kind == Mmap {
				arenas = append(arenas, r)
			}
		}
		if len(arenas) == 0 {
			return "munmap: nothing mapped"
		}
		r := arenas[rng.IntN(len(arenas))]
		must(s.Munmap(r))
		m.unmapped(r)
		return fmt.Sprintf("munmap %#x", r.start)
	}
	// Each log resets on its own clock; now and then one closes while the
	// others stay open, or reopens.
	i := rng.IntN(len(m.logs))
	l := m.logs[i]
	switch {
	case !l.open && rng.IntN(3) == 0:
		m.open(l)
		return fmt.Sprintf("open log %d", i)
	case l.open && rng.IntN(12) == 0:
		m.close(l)
		return fmt.Sprintf("close log %d", i)
	case l.open && rng.IntN(i+1) == 0:
		m.reset(l)
		return fmt.Sprintf("reset log %d", i)
	}
	return "idle"
}

func TestDirtyLogMatchesModel(t *testing.T) {
	for _, nLogs := range []int{1, 2, 3} {
		for seed := uint64(0); seed < 40; seed++ {
			rng := rand.New(rand.NewPCG(seed, uint64(nLogs)))
			m := newRefSpace(t, nLogs)
			s, ps := m.s, m.s.PageSize()
			// A process image to start from, some of it marked
			// recomputable before any log opens.
			arena, _ := s.Mmap(5 * ps)
			initial := []*Region{s.MapData(3 * ps), arena}
			for i := 0; i < 3; i++ {
				r, _ := s.Mmap((2 + rng.Uint64N(6)) * ps)
				initial = append(initial, r)
			}
			for _, r := range initial {
				if rng.IntN(4) == 0 {
					m.markRecomputable(r)
				}
			}
			where := func(i int, what string) string {
				return fmt.Sprintf("%d logs, seed %d, step %d (%s)", nLogs, seed, i, what)
			}
			m.check(where(-1, "setup"))
			for i := 0; i < 400; i++ {
				m.check(where(i, m.step(rng)))
			}
			// Close what is still open in a random order, the space
			// staying busy in between.
			rng.Shuffle(len(m.logs), func(i, j int) { m.logs[i], m.logs[j] = m.logs[j], m.logs[i] })
			for i, l := range m.logs {
				if l.open {
					m.close(l)
				}
				m.check(where(400+i, "final close"))
				m.check(where(400+i, m.step(rng)))
			}
			for _, l := range m.logs { // step may have reopened one
				if l.open {
					m.close(l)
				}
			}
			m.check(where(500, "all closed"))
			if len(s.logs) != 0 {
				t.Fatalf("%s: %d logs still stacked", where(500, "all closed"), len(s.logs))
			}
			r := initial[0]
			r.ProtectAll()
			for idx := uint64(0); idx < r.Pages(); idx++ {
				m.prot[page{r, idx}] = true
			}
			// With nobody to unprotect it, the first page a store run
			// reaches takes its fault and ends the run: one fault, the
			// page still protected, nothing lent and nothing counted.
			run, err := s.StoreRun(r.start+ps, 2*ps)
			if err != nil {
				t.Fatal(err)
			}
			if b, n := run.Next(); n != 0 || b != nil || !errors.Is(run.Err(), ErrSegv) {
				t.Fatalf("store run on a page nobody unprotects lent %d bytes, err %v", n, run.Err())
			}
			m.faults++
			delete(m.silent, page{r, 1}) // a delivered fault is seen, stored or not
			m.check(where(501, "segv"))
		}
	}
}

// Logs close in any order: a closed log leaves the stack at once, and
// one reopened goes on top.
func TestDirtyLogClosesInAnyOrder(t *testing.T) {
	s := NewAddressSpace(Config{Phantom: true})
	r, _ := s.Mmap(4 * s.PageSize())
	a, b, c := NewDirtyLog(s), NewDirtyLog(s), NewDirtyLog(s)
	a.Open()
	b.Open()
	c.Open()
	b.Close() // the middle one; unprotects everything
	a.Reset()
	if err := s.WriteRange(r.Start(), r.Size()); err != nil {
		t.Fatal(err)
	}
	if a.Count() != 4 || c.Count() != 4 || b.Count() != 0 || s.Faults() != 4 {
		t.Fatalf("after closing the middle log: a %d, b %d, c %d pages, space %d faults; want 4, 0, 4, 4",
			a.Count(), b.Count(), c.Count(), s.Faults())
	}
	if !slices.Equal(s.logs, []*DirtyLog{a, c}) {
		t.Fatalf("%d logs stacked, want a and c", len(s.logs))
	}
	c.Close()
	b.Open() // a closed log reopens on top
	if !slices.Equal(s.logs, []*DirtyLog{a, b}) {
		t.Fatalf("%d logs stacked, want a and b", len(s.logs))
	}
	a.Close()
	b.Reset()
	s.WriteRange(r.Start(), s.PageSize())
	if b.Count() != 1 || a.Count() != 4 || s.Faults() != 5 {
		t.Fatalf("reopened log: b %d pages, a %d, space %d faults; want 1, 4 (kept), 5", b.Count(), a.Count(), s.Faults())
	}
	b.Close()
	b.Close() // idempotent
	if len(s.logs) != 0 || r.ProtectedPages() != 0 {
		t.Fatalf("%d logs stacked, %d pages protected after the last close", len(s.logs), r.ProtectedPages())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("opening an open log did not panic")
		}
	}()
	a.Open()
	a.Open()
}

// The steady state of a sweep — a fault on a region the log already has
// a set for — allocates nothing, stacked or not.
func TestDirtyLogFaultDoesNotAllocate(t *testing.T) {
	s := NewAddressSpace(Config{Phantom: true})
	r, _ := s.Mmap(512 * s.PageSize())
	a, b := NewDirtyLog(s), NewDirtyLog(s)
	b.OnFault = func(*Region, uint64, uint64) {}
	a.Open()
	b.Open()
	sweep := func() {
		a.Reset()
		if err := s.WriteRange(r.Start(), r.Size()); err != nil {
			t.Fatal(err)
		}
	}
	sweep()
	if n := testing.AllocsPerRun(20, sweep); n != 0 {
		t.Fatalf("%v allocations per 512-fault sweep, want 0", n)
	}
	if a.Faults() != 22*512 || b.Faults() != 22*512 || b.Count() != 512 {
		t.Fatalf("a %d faults, b %d faults and %d pages", a.Faults(), b.Faults(), b.Count())
	}
}

// Logs open, but none records the region: the write's first protected
// page faults once and ends it with ErrSegv, the pages after it
// untouched.
func TestDirtyLogSegvWhenNoLogRecords(t *testing.T) {
	s := NewAddressSpace(Config{Phantom: true})
	r, _ := s.Mmap(130 * s.PageSize())
	r.MarkRecomputable()
	a, b := NewDirtyLog(s), NewDirtyLog(s)
	a.Open()
	b.Open()
	r.ProtectAll()
	r.SetProtected(r.Start(), false)
	err := s.WriteRange(r.Start(), r.Size())
	if !errors.Is(err, ErrSegv) {
		t.Fatalf("write to a region no log records: %v, want ErrSegv", err)
	}
	if s.Faults() != 1 || a.Faults() != 0 || b.Faults() != 0 || r.ProtectedPages() != r.Pages()-1 {
		t.Fatalf("space %d faults, logs %d and %d, %d of %d pages protected; want 1, 0, 0, %d",
			s.Faults(), a.Faults(), b.Faults(), r.ProtectedPages(), r.Pages(), r.Pages()-1)
	}
}

// Stacked logs take a sweep's faults a bitmap word at a time, top of
// the stack first, each in ascending order — one OnFault call per word
// and log — and a delivery into an existing set allocates nothing.
func TestDirtyLogWordDelivery(t *testing.T) {
	type seen struct {
		log string
		idx uint64
	}
	s := NewAddressSpace(Config{Phantom: true})
	r, _ := s.Mmap(130 * s.PageSize())
	var got []seen
	calls := 0
	observe := func(log string) func(*Region, uint64, uint64) {
		return func(_ *Region, w, m uint64) {
			calls++
			for ; m != 0; m &= m - 1 {
				got = append(got, seen{log, w*64 + uint64(bits.TrailingZeros64(m))})
			}
		}
	}
	a, b := NewDirtyLog(s), NewDirtyLog(s)
	a.OnFault, b.OnFault = observe("a"), observe("b")
	a.Open()
	b.Open() // the top of the stack
	if err := s.WriteRange(r.Start()+5*s.PageSize(), 120*s.PageSize()); err != nil {
		t.Fatal(err)
	}
	var want []seen
	add := func(lo, hi uint64, logs ...string) {
		for _, l := range logs {
			for idx := lo; idx < hi; idx++ {
				want = append(want, seen{l, idx})
			}
		}
	}
	add(5, 64, "b", "a")
	add(64, 125, "b", "a")
	if !slices.Equal(got, want) {
		t.Fatalf("OnFault order %v, want %v", got, want)
	}
	if calls != 4 {
		t.Fatalf("%d OnFault calls for two words under two logs, want 4", calls)
	}
	a.OnFault, b.OnFault = nil, nil
	sweep := func() {
		a.Reset()
		if err := s.WriteRange(r.Start(), r.Size()); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(20, sweep); n != 0 {
		t.Fatalf("%v allocations per sweep, want 0", n)
	}
	if a.Count() != r.Pages() || b.Count() != r.Pages() || s.Faults() != 120+21*r.Pages() {
		t.Fatalf("a %d pages, b %d, space %d faults", a.Count(), b.Count(), s.Faults())
	}
}
