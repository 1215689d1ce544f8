package kernels

import (
	"math/cmplx"
	"math/rand/v2"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/ckptspec"
	"repro/internal/des"
	"repro/internal/mem"
	"repro/internal/mpi"
	"repro/internal/storage"
	"repro/internal/tracker"
)

// Integration tests: real kernels under the real checkpointer — crash,
// restore into a fresh address space, resume, and compare against an
// uninterrupted run. These exercise content-backed checkpointing on
// genuine computations, not synthetic write patterns.

// protect wraps a space with an incremental checkpointer.
func protect(t *testing.T, sp *mem.AddressSpace) (*ckpt.Checkpointer, *storage.MemStore) {
	t.Helper()
	store := storage.NewMemStore()
	c, err := ckpt.NewCheckpointer(des.NewEngine(), sp, ckpt.Options{Store: store, FullEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	return c, store
}

func TestSSORCrashRestoreResume(t *testing.T) {
	const nx, ny, total, crash = 16, 16, 40, 23
	// Uninterrupted reference.
	ref, _ := newSSOR(freshArenas(space()), nx, ny, 0, 4, 1.3)
	for i := 0; i < total; i++ {
		if err := ref.Step(); err != nil {
			t.Fatal(err)
		}
	}
	want, _ := ref.u.checksum()

	// Protected run, checkpoint every 5 iterations, crash at 23.
	sp := space()
	s, _ := newSSOR(freshArenas(sp), nx, ny, 0, 4, 1.3)
	c, store := protect(t, sp)
	lastIter := -1
	var lastSeq uint64
	for i := 1; i <= crash; i++ {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
		if i%5 == 0 {
			res, err := c.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			lastIter, lastSeq = i, res.Seq
		}
	}
	// Crash. Restore and resume.
	spaces, err := ckpt.RestoreAll(store, 1, lastSeq)
	if err != nil {
		t.Fatal(err)
	}
	fresh := spaces[0]
	resumed, err := newSSOR(restoredArenas(fresh), nx, ny, lastIter, 0, 1.3)
	if err != nil {
		t.Fatal(err)
	}
	for i := lastIter + 1; i <= total; i++ {
		if err := resumed.Step(); err != nil {
			t.Fatal(err)
		}
	}
	got, _ := resumed.u.checksum()
	if got != want {
		t.Fatalf("SSOR resume checksum %v != reference %v", got, want)
	}
}

func TestWavefrontCrashRestoreResume(t *testing.T) {
	const nx, ny, total, crash = 14, 11, 12, 7
	ref, _ := newWavefront(freshArenas(space()), nx, ny, 0, 2)
	for i := 0; i < total; i++ {
		ref.Step()
	}
	want, _ := ref.v.checksum()

	sp := space()
	w, _ := newWavefront(freshArenas(sp), nx, ny, 0, 2)
	c, store := protect(t, sp)
	var lastSeq uint64
	lastIter := 0
	for i := 1; i <= crash; i++ {
		w.Step()
		if i%3 == 0 {
			res, err := c.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			lastIter, lastSeq = i, res.Seq
		}
	}
	spaces, err := ckpt.RestoreAll(store, 1, lastSeq)
	if err != nil {
		t.Fatal(err)
	}
	fresh := spaces[0]
	resumed, err := newWavefront(restoredArenas(fresh), nx, ny, lastIter, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := lastIter + 1; i <= total; i++ {
		resumed.Step()
	}
	got, _ := resumed.v.checksum()
	if got != want {
		t.Fatalf("wavefront resume checksum %v != %v", got, want)
	}
}

func TestADICrashRestoreResume(t *testing.T) {
	const nx, ny, total, crash = 12, 12, 10, 6
	ref, _ := newADI(freshArenas(space()), nx, ny, 0, 9, 0.5)
	for i := 0; i < total; i++ {
		ref.Step()
	}
	want, _ := ref.u.checksum()

	sp := space()
	a, _ := newADI(freshArenas(sp), nx, ny, 0, 9, 0.5)
	c, store := protect(t, sp)
	var lastSeq uint64
	lastIter := 0
	for i := 1; i <= crash; i++ {
		a.Step()
		if i%2 == 0 {
			res, _ := c.Checkpoint()
			lastIter, lastSeq = i, res.Seq
		}
	}
	spaces, err := ckpt.RestoreAll(store, 1, lastSeq)
	if err != nil {
		t.Fatal(err)
	}
	fresh := spaces[0]
	resumed, err := newADI(restoredArenas(fresh), nx, ny, lastIter, 0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for i := lastIter + 1; i <= total; i++ {
		resumed.Step()
	}
	got, _ := resumed.u.checksum()
	if got != want {
		t.Fatalf("ADI resume checksum %v != %v", got, want)
	}
}

// FFT interrupted mid-transform: checkpoint between butterfly passes,
// crash, restore, finish the transform — the spectrum must match the
// uninterrupted transform bit for bit.
func TestFFTCrashMidTransform(t *testing.T) {
	const n = 256
	rng := rand.New(rand.NewPCG(11, 12))
	signal := make([]complex128, n)
	for i := range signal {
		signal[i] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
	}
	ref, _ := newFFT(freshArenas(space()), n, 0)
	ref.load(signal)
	want, err := transform(ref)
	if err != nil {
		t.Fatal(err)
	}

	sp := space()
	f, _ := newFFT(freshArenas(sp), n, 0)
	f.load(signal)
	c, store := protect(t, sp)
	passes := 0
	for 1<<passes < n {
		passes++
	}
	crashAfter := passes / 2
	for p := 0; p < crashAfter; p++ {
		if err := f.Step(); err != nil {
			t.Fatal(err)
		}
	}
	res, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	// More passes that the crash destroys.
	f.Step()
	f.Step()

	spaces, err := ckpt.RestoreAll(store, 1, res.Seq)
	if err != nil {
		t.Fatal(err)
	}
	fresh := spaces[0]
	resumed, err := newFFT(restoredArenas(fresh), n, crashAfter)
	if err != nil {
		t.Fatal(err)
	}
	for p := crashAfter; p < passes; p++ {
		if err := resumed.Step(); err != nil {
			t.Fatal(err)
		}
	}
	got, err := resumed.result()
	if err != nil {
		t.Fatal(err)
	}
	for k := range want {
		if cmplx.Abs(got[k]-want[k]) > 1e-12 {
			t.Fatalf("bin %d: %v != %v after mid-transform recovery", k, got[k], want[k])
		}
	}
}

// A real kernel under the tracker: the measured IWS of a stencil equals
// one grid buffer (+ boundary-page slack) per iteration, alternating.
func TestStencilUnderTracker(t *testing.T) {
	eng := des.NewEngine()
	sp := mem.NewAddressSpace(mem.Config{PageSize: 4096})
	const nx, ny = 64, 64
	s, err := NewStencil2D(sp, nx, ny, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tracker.New(eng, sp, tracker.Options{Timeslice: des.Second})
	if err != nil {
		t.Fatal(err)
	}
	tr.Start()
	// One stencil iteration per virtual second.
	for i := 0; i < 4; i++ {
		at := des.Time(i)*des.Second + des.Millisecond
		eng.Schedule(at, func() {
			if err := s.Step(); err != nil {
				t.Error(err)
			}
		})
	}
	eng.Run(4 * des.Second)
	tr.Stop()
	grid := uint64(nx * ny * 8)
	for i, smp := range tr.Samples() {
		// One buffer's interior is written per iteration: between half
		// a grid and a full grid of pages.
		if smp.IWSBytes < grid/2 || smp.IWSBytes > grid+8*4096 {
			t.Fatalf("slice %d IWS = %d, want ~%d", i, smp.IWSBytes, grid)
		}
	}
	if tr.TotalFaults() == 0 {
		t.Fatal("no faults observed")
	}
}

// TestAttachValidation: a restore checks its parameters the way a fresh
// start does, before it asks for an arena. Each case runs over a space
// holding the fresh build of the valid kernel, so only the bad parameter
// can refuse it.
func TestAttachValidation(t *testing.T) {
	for _, c := range []struct {
		name       string
		fresh, bad func(src *arenas) error
	}{
		{"bad SSOR dims",
			func(src *arenas) error { _, err := newSSOR(src, 16, 16, 0, 1, 1.2); return err },
			func(src *arenas) error { _, err := newSSOR(src, 2, 2, 0, 0, 1.2); return err }},
		{"negative SSOR iteration",
			func(src *arenas) error { _, err := newSSOR(src, 16, 16, 0, 1, 1.2); return err },
			func(src *arenas) error { _, err := newSSOR(src, 16, 16, -1, 0, 1.2); return err }},
		{"non-power-of-two FFT",
			func(src *arenas) error { _, err := newFFT(src, 16, 0); return err },
			func(src *arenas) error { _, err := newFFT(src, 12, 0); return err }},
		{"bad wavefront dims",
			func(src *arenas) error { _, err := newWavefront(src, 5, 5, 0, 1); return err },
			func(src *arenas) error { _, err := newWavefront(src, 1, 5, 0, 0); return err }},
		{"bad ADI lambda",
			func(src *arenas) error { _, err := newADI(src, 12, 12, 0, 1, 0.5); return err },
			func(src *arenas) error { _, err := newADI(src, 12, 12, 0, 0, 0); return err }},
		{"negative stencil iteration",
			func(src *arenas) error { _, err := newStencil2D(src, 8, 8, 0, 1); return err },
			func(src *arenas) error { _, err := newStencil2D(src, 8, 8, -1, 0); return err }},
	} {
		sp := space()
		if err := c.fresh(freshArenas(sp)); err != nil {
			t.Fatalf("%s: fresh build: %v", c.name, err)
		}
		err := c.bad(restoredArenas(sp))
		if err == nil || strings.Contains(err.Error(), "arena") {
			t.Errorf("%s: restore err = %v, want a parameter refusal", c.name, err)
		}
	}
}

// TestArenaSourceRebindsTheFreshLayout: each kernel's one constructor,
// run over the spaces ckpt.RestoreAll rebuilds from a full checkpoint,
// binds every arena at the address the fresh build put it. A restored
// space (rank 0's) missing its last arena, holding one extra, or whose
// last arena is a page too big is refused.
func TestArenaSourceRebindsTheFreshLayout(t *testing.T) {
	// A build returns the regions it bound, rank by rank.
	type build func(spaces []*mem.AddressSpace) ([]*mem.Region, error)
	regions := func(bs []ckptspec.Binding) []*mem.Region {
		var rs []*mem.Region
		for _, b := range bs {
			rs = append(rs, b.Region)
		}
		return rs
	}
	solo := func(name string) (build, build) {
		run := func(attach bool) build {
			return func(spaces []*mem.AddressSpace) ([]*mem.Region, error) {
				var k SoloKernel
				var err error
				if attach {
					k, err = AttachSoloKernel(name, spaces[0], 16, 3)
				} else {
					k, err = NewSoloKernel(name, spaces[0], 16)
				}
				if err != nil {
					return nil, err
				}
				return regions(k.ProtectionBindings()), nil
			}
		}
		return run(false), run(true)
	}
	world := func(spaces []*mem.AddressSpace) (*des.Engine, *mpi.World) {
		eng := des.NewEngine()
		w, err := mpi.NewWorld(eng, mpi.QsNet(), mpi.Bounce, spaces)
		if err != nil {
			t.Fatal(err)
		}
		return eng, w
	}
	dist := func(attach bool) build {
		return func(spaces []*mem.AddressSpace) ([]*mem.Region, error) {
			eng, w := world(spaces)
			var d *DistStencil
			var err error
			if attach {
				d, err = AttachDistStencil(eng, w, 8, 3, des.Millisecond, 2)
			} else {
				d, err = NewDistStencil(eng, w, 8, 3, 1, des.Millisecond)
			}
			if err != nil {
				return nil, err
			}
			var rs []*mem.Region
			for i := range spaces {
				rs = append(rs, regions(d.ProtectionBindings(i))...)
			}
			return rs, nil
		}
	}
	put := func(attach bool) build {
		return func(spaces []*mem.AddressSpace) ([]*mem.Region, error) {
			eng, w := world(spaces)
			var d *DistPut
			var err error
			if attach {
				d, err = AttachDistPut(eng, w, 2, 1, des.Millisecond, 2)
			} else {
				d, err = NewDistPut(eng, w, 2, 1, 1, des.Millisecond)
			}
			if err != nil {
				return nil, err
			}
			return d.arenas, nil
		}
	}
	type kernel struct {
		name           string
		ranks          int
		fresh, restore build
	}
	var kernels []kernel
	for _, name := range soloNames() {
		fresh, restore := solo(name)
		kernels = append(kernels, kernel{name, 1, fresh, restore})
	}
	kernels = append(kernels, kernel{"dist stencil", 2, dist(false), dist(true)}, kernel{"dist put", 2, put(false), put(true)})

	lastArena := func(sp *mem.AddressSpace) *mem.Region {
		var last *mem.Region
		for _, r := range sp.Regions() {
			if r.Kind() == mem.Mmap {
				last = r
			}
		}
		return last
	}
	mutations := []struct {
		name   string
		mutate func(sp *mem.AddressSpace) error
	}{
		{"missing its last arena", func(sp *mem.AddressSpace) error { return sp.Munmap(lastArena(sp)) }},
		{"holding an extra arena", func(sp *mem.AddressSpace) error { _, err := sp.Mmap(sp.PageSize()); return err }},
		{"with its last arena a page too big", func(sp *mem.AddressSpace) error {
			r := lastArena(sp)
			start, size := r.Start(), r.Size()
			if err := sp.Munmap(r); err != nil {
				return err
			}
			_, err := sp.MapAt(start, size+sp.PageSize(), mem.Mmap)
			return err
		}},
	}
	for _, k := range kernels {
		spaces := make([]*mem.AddressSpace, k.ranks)
		for i := range spaces {
			spaces[i] = mem.NewAddressSpace(mem.Config{PageSize: 4096})
		}
		want, err := k.fresh(spaces)
		if err != nil {
			t.Fatalf("%s: fresh build: %v", k.name, err)
		}
		store := storage.NewMemStore()
		for i, sp := range spaces {
			c, err := ckpt.NewCheckpointer(des.NewEngine(), sp, ckpt.Options{Rank: i, Store: store})
			if err != nil {
				t.Fatal(err)
			}
			c.Start()
			if res, err := c.Checkpoint(); err != nil || res.Kind != ckpt.Full {
				t.Fatalf("%s: rank %d checkpoint: %v, %v", k.name, i, res.Kind, err)
			}
		}
		restore := func() []*mem.AddressSpace {
			restored, err := ckpt.RestoreAll(store, k.ranks, 0)
			if err != nil {
				t.Fatalf("%s: restore: %v", k.name, err)
			}
			return restored
		}
		got, err := k.restore(restore())
		if err != nil {
			t.Fatalf("%s: restored build: %v", k.name, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: restored build bound %d arenas, fresh %d", k.name, len(got), len(want))
		}
		for i := range want {
			if got[i].Start() != want[i].Start() {
				t.Errorf("%s: arena %d restored at %#x, fresh at %#x", k.name, i, got[i].Start(), want[i].Start())
			}
		}
		for _, m := range mutations {
			restored := restore()
			if err := m.mutate(restored[0]); err != nil {
				t.Fatal(err)
			}
			if _, err := k.restore(restored); err == nil {
				t.Errorf("%s: restored space %s accepted", k.name, m.name)
			}
		}
	}
}
