package ckpt

import (
	"bytes"
	"cmp"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/des"
	"repro/internal/mem"
	"repro/internal/storage"
)

// modelRegion is a region as the per-page models below see it: whether
// the checkpointer captures it, whether its table entry is omitted (a
// bounce arena), and the pages written since the last capture.
type modelRegion struct {
	r        *mem.Region
	captured bool
	omitted  bool
	dirty    map[uint64]bool
}

// modelSpace is a phantom space driven by a seeded script, with a
// per-page record of what was written where.
type modelSpace struct {
	t    *testing.T
	rng  *rand.Rand
	eng  *des.Engine
	sp   *mem.AddressSpace
	regs []*modelRegion // live, in mapping order
}

// oddPages are region sizes around bitmap word boundaries.
var oddPages = []uint64{1, 3, 63, 64, 65, 127, 129, 200, 333}

func newModelSpace(t *testing.T, seed uint64) *modelSpace {
	return &modelSpace{
		t:   t,
		rng: rand.New(rand.NewPCG(seed, 40)),
		eng: des.NewEngine(),
		sp:  mem.NewAddressSpace(mem.Config{PageSize: pageSize, Phantom: true}),
	}
}

func (m *modelSpace) mmap(pages uint64) *modelRegion {
	r, err := m.sp.Mmap(pages * pageSize)
	if err != nil {
		m.t.Fatal(err)
	}
	mr := &modelRegion{r: r, captured: true, dirty: map[uint64]bool{}}
	m.regs = append(m.regs, mr)
	return mr
}

// bounce maps a bounce arena: never captured, never in a region table.
func (m *modelSpace) bounce(pages uint64) *modelRegion {
	r, err := m.sp.MapBounce(pages * pageSize)
	if err != nil {
		m.t.Fatal(err)
	}
	mr := &modelRegion{r: r, omitted: true, dirty: map[uint64]bool{}}
	m.regs = append(m.regs, mr)
	return mr
}

// unmapOne unmaps a random arena and returns it, or nil when there is
// none.
func (m *modelSpace) unmapOne() *modelRegion {
	var arenas []int
	for i, mr := range m.regs {
		if mr.r.Kind() == mem.Mmap {
			arenas = append(arenas, i)
		}
	}
	if len(arenas) == 0 {
		return nil
	}
	i := arenas[m.rng.IntN(len(arenas))]
	mr := m.regs[i]
	if err := m.sp.Munmap(mr.r); err != nil {
		m.t.Fatal(err)
	}
	m.regs = slices.Delete(m.regs, i, i+1)
	return mr
}

// write writes a random run of pages — one page, or many crossing bitmap
// words — of a random live region, and returns the region and the run.
func (m *modelSpace) write() (mr *modelRegion, lo, hi uint64) {
	mr = m.regs[m.rng.IntN(len(m.regs))]
	n := mr.r.Pages()
	lo = m.rng.Uint64N(n)
	hi = lo + 1
	if m.rng.IntN(3) != 0 {
		hi = min(n, lo+1+m.rng.Uint64N(150))
	}
	if err := m.sp.WriteRange(mr.r.PageAddr(lo), (hi-lo)*pageSize); err != nil {
		m.t.Fatal(err)
	}
	if mr.captured {
		for p := lo; p < hi; p++ {
			mr.dirty[p] = true
		}
	}
	return mr, lo, hi
}

// advance moves the clock on by d, running the events due by then (a
// TrackCow checkpointer's drain end among them).
func (m *modelSpace) advance(d des.Time) {
	m.eng.Schedule(m.eng.Now()+d, func() {})
	m.eng.Run(m.eng.Now() + d)
}

// byAddress returns the live regions in address order.
func (m *modelSpace) byAddress() []*modelRegion {
	out := slices.Clone(m.regs)
	slices.SortFunc(out, func(a, b *modelRegion) int { return cmp.Compare(a.r.Start(), b.r.Start()) })
	return out
}

// A content-free capture writes its records straight from each region's
// extent (full) or its dirty set's words (incremental). Its bytes must
// be what Segment.AppendEncode makes of the page list a per-page model
// of the same script materialises: full and incremental captures, page
// counts off word boundaries, several regions, a bounce arena and a
// region marked recomputable, and arenas unmapped and mapped
// mid-interval.
func TestContentFreeCaptureMatchesModel(t *testing.T) {
	var fulls, incrementals, dropped int
	for trial := uint64(0); trial < 12; trial++ {
		m := newModelSpace(t, trial)
		store := storage.NewMemStore()
		fullEvery := int(trial % 4)
		c, err := NewCheckpointer(m.eng, m.sp, Options{Rank: 1, Store: store, FullEvery: fullEvery, TrackCow: trial%2 == 0})
		if err != nil {
			t.Fatal(err)
		}
		data := &modelRegion{r: m.sp.MapData(65 * pageSize), captured: true, dirty: map[uint64]bool{}}
		m.regs = append(m.regs, data)
		for _, pages := range oddPages[:4+trial%5] {
			m.mmap(pages)
		}
		m.bounce(70)
		dataless := m.mmap(129)
		dataless.r.MarkRecomputable()
		dataless.captured = false
		c.Start()

		var seq, epoch uint64
		for round := 0; round < 14; round++ {
			m.advance(des.Second)
			var droppedPages uint64
			for step := m.rng.IntN(12); step >= 0; step-- {
				switch k := m.rng.IntN(10); {
				case k == 0 && len(m.regs) > 3:
					if mr := m.unmapOne(); mr != nil && mr.captured {
						droppedPages += uint64(len(mr.dirty))
						dropped++
					}
				case k == 1:
					m.mmap(oddPages[m.rng.IntN(len(oddPages))])
				default:
					m.write()
				}
			}
			kind := Incremental
			if seq == 0 || (fullEvery > 0 && seq%uint64(fullEvery) == 0) {
				kind, epoch = Full, seq
			}
			want := &Segment{
				Rank: 1, Seq: seq, Epoch: epoch, Kind: kind, ContentFree: true,
				PageSize: pageSize, TakenAt: m.eng.Now(),
			}
			for _, mr := range m.byAddress() {
				if mr.r.Kind() == mem.Stack {
					continue
				}
				if !mr.omitted {
					want.Regions = append(want.Regions, RegionInfo{Start: mr.r.Start(), Size: mr.r.Size(), Kind: mr.r.Kind()})
				}
				if !mr.captured {
					continue
				}
				for p := uint64(0); p < mr.r.Pages(); p++ {
					if kind == Full || mr.dirty[p] {
						want.Pages = append(want.Pages, PageRecord{Addr: mr.r.PageAddr(p)})
					}
				}
				clear(mr.dirty)
			}
			res, err := c.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			got, err := store.Get(SegmentKey(1, seq))
			if err != nil {
				t.Fatal(err)
			}
			if wantEnc := want.AppendEncode(nil); !bytes.Equal(got, wantEnc) {
				t.Fatalf("trial %d round %d (%s): captured %d bytes differ from the model's %d", trial, round, kind, len(got), len(wantEnc))
			}
			if res.Pages != uint64(len(want.Pages)) || res.PageBytes != res.Pages*pageSize || res.ExcludedPages != droppedPages {
				t.Fatalf("trial %d round %d: %d pages (%d bytes), %d excluded; model %d pages, %d excluded",
					trial, round, res.Pages, res.PageBytes, res.ExcludedPages, len(want.Pages), droppedPages)
			}
			if kind == Full {
				fulls++
			} else {
				incrementals++
			}
			seq++
		}
	}
	if fulls == 0 || incrementals == 0 || dropped == 0 {
		t.Fatalf("script covered %d full and %d incremental captures, %d dirty unmaps", fulls, incrementals, dropped)
	}
}

// CowCopyBytes against a per-page model of §6.2's accounting: a write
// during a segment's drain to a page that segment captured costs one
// pre-image copy, once per page per drain. Random write scripts on
// regions off word boundaries, drains that close mid-script, arenas
// unmapped (and their addresses reused) while a drain is open, and — on
// odd trials — a tracker's log stacked on top, reset on its own clock,
// so captured pages fault again in the checkpointer's log.
func TestCowCopyBytesMatchesPageModel(t *testing.T) {
	var copies, closed, unmapsInDrain, stacked int
	for trial := uint64(0); trial < 16; trial++ {
		m := newModelSpace(t, 100+trial)
		sink := storage.Model{Name: "slow", Bandwidth: 100 * pageSize} // 100 pages a second
		c, err := NewCheckpointer(m.eng, m.sp, Options{Store: storage.NewMemStore(), Sink: sink, FullEvery: int(trial % 3), TrackCow: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, pages := range oddPages[trial%4 : 5+trial%5] {
			m.mmap(pages)
		}
		m.mmap(65).r.MarkRecomputable()
		m.regs[len(m.regs)-1].captured = false
		c.Start()
		var tracker *mem.DirtyLog
		if trial%2 == 1 {
			tracker = mem.NewDirtyLog(m.sp)
			tracker.Open()
			stacked++
		}

		type page struct {
			r   *mem.Region
			idx uint64
		}
		drain := map[page]bool{}
		var drainUntil des.Time
		var cow uint64
		for step := 0; step < 300; step++ {
			m.advance(des.Time(m.rng.IntN(700)) * des.Millisecond)
			inDrain := m.eng.Now() < drainUntil
			switch k := m.rng.IntN(20); {
			case k < 2:
				res, err := c.Checkpoint()
				if err != nil {
					t.Fatal(err)
				}
				clear(drain)
				for _, mr := range m.regs {
					for p := range mr.dirty {
						drain[page{mr.r, p}] = true
					}
					clear(mr.dirty)
				}
				if m.eng.Now() >= drainUntil && drainUntil > 0 {
					closed++
				}
				drainUntil = m.eng.Now() + res.Duration
			case k == 2 && tracker != nil:
				tracker.Reset()
			case k == 3 && len(m.regs) > 3:
				if mr := m.unmapOne(); mr != nil && inDrain {
					unmapsInDrain++
				}
			case k == 4:
				m.mmap(oddPages[m.rng.IntN(len(oddPages))])
			default:
				wr, lo, hi := m.write()
				if inDrain {
					for p := lo; p < hi; p++ {
						if drain[page{wr.r, p}] {
							delete(drain, page{wr.r, p})
							cow += pageSize
							copies++
						}
					}
				}
			}
			if got := c.Stats().CowCopyBytes; got != cow {
				t.Fatalf("trial %d step %d: CowCopyBytes %d, model %d", trial, step, got, cow)
			}
		}
	}
	if copies == 0 || closed == 0 || unmapsInDrain == 0 || stacked == 0 {
		t.Fatalf("script covered %d copies, %d drains closed before the next capture, %d unmaps in a drain, %d stacked runs",
			copies, closed, unmapsInDrain, stacked)
	}
}

// The size pass counts a content-free capture's page runs by the
// writer's own rule, so every phantom segment — full or incremental,
// runs crossing bitmap words and adjacent regions, arenas unmapped and
// mapped between captures — is exact: a keeping store is given it with
// only the envelope's room spare.
func TestContentFreeSegmentsAreExact(t *testing.T) {
	var multiRun int
	for trial := uint64(0); trial < 8; trial++ {
		m := newModelSpace(t, 200+trial)
		store := &handoffStore{Store: storage.NewMemStore(), owned: map[string]bool{}, slack: map[string]int{}}
		c, err := NewCheckpointer(m.eng, m.sp, Options{Store: store, FullEvery: int(trial % 3)})
		if err != nil {
			t.Fatal(err)
		}
		for _, pages := range oddPages {
			m.mmap(pages)
		}
		c.Start()
		for seq := uint64(0); seq < 12; seq++ {
			m.advance(des.Second)
			for step := m.rng.IntN(10); step >= 0; step-- {
				switch k := m.rng.IntN(10); {
				case k == 0 && len(m.regs) > 3:
					m.unmapOne()
				case k == 1:
					m.mmap(oddPages[m.rng.IntN(len(oddPages))])
				default:
					m.write()
				}
			}
			if _, err := c.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			key := SegmentKey(0, seq)
			if !store.owned[key] || store.slack[key] != storage.SealRoom {
				t.Fatalf("trial %d seq %d: given away %v with %d bytes spare, want the %d-byte envelope room",
					trial, seq, store.owned[key], store.slack[key], storage.SealRoom)
			}
			data, err := store.Get(key)
			if err != nil {
				t.Fatal(err)
			}
			seg, err := DecodeSegment(data)
			if err != nil {
				t.Fatal(err)
			}
			if len(seg.Runs) > 1 {
				multiRun++
			}
		}
	}
	if multiRun == 0 {
		t.Fatal("no segment held more than one run")
	}
}
