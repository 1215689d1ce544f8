package autonomic

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/des"
	"repro/internal/mem"
	"repro/internal/mpi"
)

// regionSpan is one live region of a rank's layout.
type regionSpan struct {
	start, size uint64
	kind        mem.Kind
}

func (r regionSpan) String() string { return fmt.Sprintf("%v[%#x, +%#x)", r.kind, r.start, r.size) }

// layoutOf is space's live regions in address order, bounce arenas and
// the stack included.
func layoutOf(space *mem.AddressSpace) []regionSpan {
	var l []regionSpan
	for _, r := range space.Regions() {
		l = append(l, regionSpan{r.Start(), r.Size(), r.Kind()})
	}
	return l
}

// worldLayouts is every rank's layout.
func worldLayouts(world *mpi.World) [][]regionSpan {
	ls := make([][]regionSpan, world.Size())
	for i := range ls {
		ls[i] = layoutOf(world.Rank(i).Space())
	}
	return ls
}

// layoutRecorder records every rank's layout when its Factory builds a
// team fresh and when it attaches one to restored spaces.
type layoutRecorder struct {
	Factory
	fresh    [][]regionSpan
	attached [][][]regionSpan
}

func (f *layoutRecorder) New(eng *des.Engine, world *mpi.World) (Computation, error) {
	c, err := f.Factory.New(eng, world)
	f.fresh = worldLayouts(world)
	return c, err
}

func (f *layoutRecorder) Attach(eng *des.Engine, world *mpi.World, iter int) (Computation, error) {
	c, err := f.Factory.Attach(eng, world, iter)
	f.attached = append(f.attached, worldLayouts(world))
	return c, err
}

// TestRestoredTeamHasTheFreshLayout: a recovered rank's arenas and its
// bounce arena lie where the fresh build put them. A fresh rank maps its
// bounce arena (mpi.NewWorld) before the kernel maps its arenas; a
// restored rank gets the arenas first, from the restore, and the bounce
// arena after — into the gap the fresh one left below them.
func TestRestoredTeamHasTheFreshLayout(t *testing.T) {
	cfg := baseConfig()
	cfg.Faults = "crash every exp 3s"
	rec := &layoutRecorder{Factory: cfg.withDefaults().Workload}
	cfg.Workload = rec
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed || len(rec.attached) == 0 {
		t.Fatalf("completed %v after %d failures and %d restores: the test proves nothing", rep.Completed, rep.Failures, len(rec.attached))
	}
	for n, layouts := range rec.attached {
		for rank, got := range layouts {
			if want := rec.fresh[rank]; !slices.Equal(got, want) {
				t.Errorf("restore %d, rank %d: layout %v, fresh build's %v", n, rank, got, want)
			}
		}
	}
}

// freeingPages is the page size of the supervisor's spaces.
const freeingPages = 4096

// freeingSlot is the pages each scratch arena of a fresh build takes:
// two slots, each bounded by an arena that is never freed.
const freeingSlot = 4

// freeingSizes are the pages of the scratch arenas iteration i maps,
// first mapped first, at freeingSizes[i%6]. A pair never adds up to a
// slot, so neither slot is ever filled exactly and every line is cut
// with at least two gaps.
var freeingSizes = [][2]uint64{{1, 2}, {3, 2}, {2, 3}, {1, 1}, {3, 3}, {2, 1}}

// freeingValues is the float64 values of a rank's state.
const freeingValues = 64

// layoutTrail checks layouts against a reference: the first run
// (engine) that records is the reference and fills want; every record
// of a later run is compared with the reference's for its rank and
// iteration.
type layoutTrail struct {
	ref               *des.Engine
	want              map[[2]int][]regionSpan
	checked, attaches int
	diffs             []string
}

func (lt *layoutTrail) record(eng *des.Engine, rank, iter int, space *mem.AddressSpace, at string) {
	got, key := layoutOf(space), [2]int{rank, iter}
	if lt.ref == nil {
		lt.ref, lt.want = eng, make(map[[2]int][]regionSpan)
	}
	if eng == lt.ref {
		lt.want[key] = got
		return
	}
	lt.checked++
	if want, ok := lt.want[key]; !ok || !slices.Equal(got, want) {
		lt.diffs = append(lt.diffs, fmt.Sprintf("%s, rank %d, iteration %d: layout %v, reference %v", at, rank, iter, got, want))
	}
}

// freeingFactory supervises a computation that, like Sage's Fortran90
// allocator, frees arenas and maps them again: every iteration it frees
// both of a rank's scratch arenas and maps them again, in the other
// order and at other sizes (freeingSizes). It binds its arenas itself: a
// rank's state arena is its lowest Mmap arena and begins with the two
// scratch arenas' addresses. Every rank's layout goes to trail at each
// iteration's end and at each attach.
type freeingFactory struct {
	computeT des.Time
	trail    *layoutTrail
}

// freeingRank is one rank's arenas.
type freeingRank struct {
	space   *mem.AddressSpace
	state   *mem.Region
	scratch [2]*mem.Region
}

type freeingComp struct {
	f     *freeingFactory
	eng   *des.Engine
	ranks []*freeingRank
	iter  int
	stop  bool
}

func (f *freeingFactory) New(eng *des.Engine, world *mpi.World) (Computation, error) {
	c := &freeingComp{f: f, eng: eng}
	for i := 0; i < world.Size(); i++ {
		space := world.Rank(i).Space()
		// State, scratch, separator, scratch, separator: each scratch
		// slot is bounded by arenas that stay.
		regs := make([]*mem.Region, 5)
		for k, pages := range []uint64{1, freeingSlot, 1, freeingSlot, 1} {
			var err error
			if regs[k], err = space.Mmap(pages * freeingPages); err != nil {
				return nil, err
			}
		}
		r := &freeingRank{space: space, state: regs[0], scratch: [2]*mem.Region{regs[1], regs[3]}}
		vals := make([]float64, freeingValues)
		for j := range vals {
			vals[j] = float64(i*freeingValues + j)
		}
		if err := r.store(vals); err != nil {
			return nil, err
		}
		c.ranks = append(c.ranks, r)
		f.trail.record(eng, i, 0, space, "fresh build")
	}
	return c, nil
}

func (f *freeingFactory) Attach(eng *des.Engine, world *mpi.World, iter int) (Computation, error) {
	c := &freeingComp{f: f, eng: eng, iter: iter}
	for i := 0; i < world.Size(); i++ {
		space := world.Rank(i).Space()
		r := &freeingRank{space: space}
		for _, reg := range space.Regions() {
			if reg.Kind() == mem.Mmap {
				r.state = reg
				break
			}
		}
		if r.state == nil {
			return nil, fmt.Errorf("rank %d: restored space holds no arena", i)
		}
		dir := make([]byte, 16)
		if err := space.Read(r.state.Start(), dir); err != nil {
			return nil, err
		}
		for k := range r.scratch {
			at := binary.LittleEndian.Uint64(dir[8*k:])
			if r.scratch[k] = space.Find(at); r.scratch[k] == nil || r.scratch[k].Start() != at {
				return nil, fmt.Errorf("rank %d: no scratch arena at %#x", i, at)
			}
		}
		c.ranks = append(c.ranks, r)
		f.trail.attaches++
		f.trail.record(eng, i, iter, space, "attach")
	}
	return c, nil
}

// store writes the scratch arenas' addresses and vals to the state arena.
func (r *freeingRank) store(vals []float64) error {
	buf := binary.LittleEndian.AppendUint64(nil, r.scratch[0].Start())
	buf = binary.LittleEndian.AppendUint64(buf, r.scratch[1].Start())
	for _, v := range vals {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return r.space.Write(r.state.Start(), buf)
}

// floats reads n float64s at addr.
func (r *freeingRank) floats(addr uint64, n int) ([]float64, error) {
	buf := make([]byte, 8*n)
	if err := r.space.Read(addr, buf); err != nil {
		return nil, err
	}
	vals := make([]float64, n)
	for j := range vals {
		vals[j] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*j:]))
	}
	return vals, nil
}

// values reads the state after the state arena's two addresses.
func (r *freeingRank) values() ([]float64, error) {
	return r.floats(r.state.Start()+16, freeingValues)
}

// step is iteration iter of one rank: fold the scratch arenas into the
// state, free both, map them again and fill them from the new state.
func (r *freeingRank) step(iter int) error {
	vals, err := r.values()
	if err != nil {
		return err
	}
	var sums [2]float64
	for k, s := range r.scratch {
		w, err := r.floats(s.Start(), freeingValues)
		if err != nil {
			return err
		}
		for _, x := range w {
			sums[k] += x
		}
	}
	for j := range vals {
		vals[j] = vals[j]*0.5 + (sums[0]-sums[1])*1e-3 + float64(j)
	}
	for _, s := range r.scratch {
		if err := r.space.Munmap(s); err != nil {
			return err
		}
	}
	sizes := freeingSizes[iter%len(freeingSizes)]
	for n, k := range []int{iter % 2, 1 - iter%2} {
		if r.scratch[k], err = r.space.Mmap(sizes[n] * freeingPages); err != nil {
			return err
		}
		buf := make([]byte, 0, 8*freeingValues)
		for j, v := range vals {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v*float64(k+1)+float64(iter-j)))
		}
		if err := r.space.Write(r.scratch[k].Start(), buf); err != nil {
			return err
		}
	}
	return r.store(vals)
}

func (c *freeingComp) Run(target int, onIter func(int, func()), onDone func()) {
	var next func()
	next = func() {
		if c.stop {
			return
		}
		if c.iter >= target {
			onDone()
			return
		}
		for _, r := range c.ranks {
			if err := r.step(c.iter + 1); err != nil {
				panic(err)
			}
		}
		c.eng.After(c.f.computeT, func() {
			if c.stop {
				return
			}
			c.iter++
			for i, r := range c.ranks {
				c.f.trail.record(c.eng, i, c.iter, r.space, "iteration end")
			}
			onIter(c.iter, next)
		})
	}
	next()
}

func (c *freeingComp) Stop() { c.stop = true }

func (c *freeingComp) Iter() int { return c.iter }

// Exchanged is zero: an iteration steps every rank at once, waiting on
// nothing before its compute time.
func (c *freeingComp) Exchanged() des.Time { return 0 }

func (c *freeingComp) Gather() ([]float64, error) {
	var all []float64
	for _, r := range c.ranks {
		vals, err := r.values()
		if err != nil {
			return nil, err
		}
		all = append(all, vals...)
	}
	return all, nil
}

// gaps counts the holes between a layout's arenas, bounce arenas
// included.
func gaps(layout []regionSpan) int {
	n := 0
	for i := 1; i < len(layout); i++ {
		if prev, r := layout[i-1], layout[i]; r.kind != mem.Stack && prev.start+prev.size < r.start {
			n++
		}
	}
	return n
}

// TestFreeingComputationReplaysAtTheReferenceLayout: a computation that
// frees and re-maps arenas every iteration, so that every line is cut
// with gaps in its ranks' layouts, replays bit-exact under crashes, and
// after every restore its arenas lie where the reference's lay at that
// iteration: a restored space places arenas where the original did.
func TestFreeingComputationReplaysAtTheReferenceLayout(t *testing.T) {
	trail := &layoutTrail{}
	cfg := baseConfig()
	cfg.Ranks = 2
	cfg.Workload = &freeingFactory{computeT: cfg.ComputeTime, trail: trail}
	cfg.Faults = "crash every exp 3s"
	out, err := ValidateReplay(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Injected.Failures == 0 || trail.attaches == 0 {
		t.Fatalf("%d failures, %d attaches: the test proves nothing", out.Injected.Failures, trail.attaches)
	}
	for iter := cfg.CkptEvery; iter <= cfg.Iterations; iter += cfg.CkptEvery {
		for rank := 0; rank < cfg.Ranks; rank++ {
			if n := gaps(trail.want[[2]int{rank, iter}]); n < 2 {
				t.Fatalf("reference line at iteration %d: rank %d's layout has %d gaps, want at least 2", iter, rank, n)
			}
		}
	}
	for _, d := range trail.diffs {
		t.Error(d)
	}
	if !out.BitExact() {
		t.Errorf("replay not bit-exact after %d failures: digests match %v, checksum match %v, diverged %+v", out.Injected.Failures, out.DigestsMatch, out.ChecksumMatch, out.Diverged)
	}
}
