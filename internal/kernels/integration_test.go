package kernels

import (
	"math/cmplx"
	"math/rand/v2"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/des"
	"repro/internal/mem"
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
	ref, _ := newSSOR(space(), nx, ny, 4, 1.3)
	for i := 0; i < total; i++ {
		if err := ref.Step(); err != nil {
			t.Fatal(err)
		}
	}
	want, _ := ref.u.checksum()

	// Protected run, checkpoint every 5 iterations, crash at 23.
	sp := space()
	s, _ := newSSOR(sp, nx, ny, 4, 1.3)
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
	resumed, err := attachSSOR(fresh, nx, ny, 1.3, lastIter)
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
	ref, _ := newWavefront(space(), nx, ny, 2)
	for i := 0; i < total; i++ {
		ref.Step()
	}
	want, _ := ref.v.checksum()

	sp := space()
	w, _ := newWavefront(sp, nx, ny, 2)
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
	resumed, err := attachWavefront(fresh, nx, ny, lastIter)
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
	ref, _ := newADI(space(), nx, ny, 9, 0.5)
	for i := 0; i < total; i++ {
		ref.Step()
	}
	want, _ := ref.u.checksum()

	sp := space()
	a, _ := newADI(sp, nx, ny, 9, 0.5)
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
	resumed, err := attachADI(fresh, nx, ny, 0.5, lastIter)
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
	ref, _ := newFFT(space(), n)
	ref.load(signal)
	want, err := transform(ref)
	if err != nil {
		t.Fatal(err)
	}

	sp := space()
	f, _ := newFFT(sp, n)
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
	resumed, err := attachFFT(fresh, n, crashAfter)
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

func TestAttachValidation(t *testing.T) {
	sp := space()
	if _, err := attachSSOR(sp, 2, 2, 1.2, 0); err == nil {
		t.Fatal("bad dims accepted")
	}
	if _, err := attachSSOR(sp, 16, 16, 1.2, 0); err == nil {
		t.Fatal("attach with no arenas accepted")
	}
	if _, err := attachFFT(sp, 12, 0); err == nil {
		t.Fatal("non-power-of-two FFT attach accepted")
	}
	if _, err := attachWavefront(sp, 1, 5, 0); err == nil {
		t.Fatal("bad wavefront dims accepted")
	}
	if _, err := attachADI(sp, 12, 12, 0, 0); err == nil {
		t.Fatal("bad lambda accepted")
	}
	if _, err := AttachArray(sp, 0x1234, 10); err == nil {
		t.Fatal("attach at unmapped address accepted")
	}
}
