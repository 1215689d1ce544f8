package kernels

import (
	"testing"

	"repro/internal/des"
	"repro/internal/mem"
	"repro/internal/mpi"
)

// warmIterationAllocs runs c one iteration at a time to completion and
// returns the allocations of a warm iteration, with or without an
// iteration hook.
func warmIterationAllocs(t *testing.T, eng *des.Engine, c interface {
	Run(target int, onIter func(iter int, next func()), onDone func())
	Iter() int
}, hooked bool) float64 {
	t.Helper()
	var hook func(int, func())
	if hooked {
		hook = func(_ int, next func()) { next() }
	}
	done := false
	onDone := func() { done = true }
	iteration := func() {
		done = false
		c.Run(c.Iter()+1, hook, onDone)
		eng.Run(des.MaxTime)
		if !done {
			t.Fatalf("iteration %d incomplete", c.Iter()+1)
		}
	}
	iteration()
	iteration()
	return testing.AllocsPerRun(20, iteration)
}

// TestDistPutIterationAllocs: with no put due in the run, a warm
// iteration of the ring allocates nothing — the loop's callbacks and the
// end-of-iteration put step are bound once.
func TestDistPutIterationAllocs(t *testing.T) {
	for _, ranks := range []int{1, 2, 4} {
		for _, hooked := range []bool{false, true} {
			eng, w := putWorld(t, ranks, mpi.Bounce)
			d, err := NewDistPut(eng, w, 2, 1<<20, 0.5, des.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if n := warmIterationAllocs(t, eng, d, hooked); n != 0 {
				t.Errorf("%d ranks, hook %v: warm iteration: %v allocs, want 0", ranks, hooked, n)
			}
		}
	}
}

// TestSoloIterationAllocs: a warm solo iteration of every named kernel
// allocates nothing beyond what its kernel's Step allocates alone. The
// FFT is left out: its transform ends after log2(n) passes, too few to
// warm up and measure.
func TestSoloIterationAllocs(t *testing.T) {
	for _, name := range soloNames() {
		if name == "fft" {
			continue
		}
		build := func() (SoloKernel, error) {
			return NewSoloKernel(name, mem.NewAddressSpace(mem.Config{PageSize: 4096}), 32)
		}
		alone, err := build()
		if err != nil {
			t.Fatal(err)
		}
		step := func() {
			if err := alone.Step(); err != nil {
				t.Fatal(err)
			}
		}
		step()
		step()
		want := testing.AllocsPerRun(20, step)
		for _, hooked := range []bool{false, true} {
			k, err := build()
			if err != nil {
				t.Fatal(err)
			}
			eng := des.NewEngine()
			s, err := NewSolo(eng, k, des.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if n := warmIterationAllocs(t, eng, s, hooked); n > want {
				t.Errorf("%s, hook %v: warm iteration: %v allocs, want <= %v (the kernel's Step)", name, hooked, n, want)
			}
		}
	}
}

// TestLoopCompletesAfterComputeTime pins the one definition of a
// completed iteration: the loop's count advances when the compute time
// after an iteration's work has elapsed, not when the work is done —
// for a solo kernel whose own counter Step has already advanced too.
func TestLoopCompletesAfterComputeTime(t *testing.T) {
	const computeT = 10 * des.Millisecond
	eng := des.NewEngine()
	k, err := NewStencil2D(mem.NewAddressSpace(mem.Config{PageSize: 4096}), 8, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSolo(eng, k, computeT)
	if err != nil {
		t.Fatal(err)
	}
	var hooks []des.Time
	s.Run(3, func(iter int, next func()) {
		if iter != len(hooks)+1 || s.Iter() != iter || k.Iter() != iter {
			t.Errorf("hook at %v: iter %d, loop %d, kernel %d", eng.Now(), iter, s.Iter(), k.Iter())
		}
		hooks = append(hooks, eng.Now())
		next()
	}, nil)
	// Mid-delay of the second iteration: the kernel has stepped, the
	// iteration has not completed.
	eng.Run(computeT + computeT/2)
	if s.Iter() != 1 || k.Iter() != 2 {
		t.Errorf("mid-delay: loop %d, kernel %d; want 1 and 2", s.Iter(), k.Iter())
	}
	eng.Run(des.MaxTime)
	if want := []des.Time{computeT, 2 * computeT, 3 * computeT}; len(hooks) != 3 ||
		hooks[0] != want[0] || hooks[1] != want[1] || hooks[2] != want[2] {
		t.Errorf("iterations completed at %v, want %v", hooks, want)
	}
}

// TestLoopExchangeIsBeginToCharge: an iteration's exchange is its span
// from beginning to charging its compute time, so a run's clock is its
// iterations' compute time plus Exchanged exactly; a solo step charges
// at once and exchanges nothing, and an iteration Stop cuts inside its
// exchange is not counted.
func TestLoopExchangeIsBeginToCharge(t *testing.T) {
	const computeT, iters = 10 * des.Millisecond, 6
	eng, w := distWorld(t, 4)
	d, err := NewDistStencil(eng, w, 16, 4, 7.5, computeT)
	if err != nil {
		t.Fatal(err)
	}
	var atBoundary []des.Time
	d.Run(iters, func(iter int, next func()) {
		atBoundary = append(atBoundary, d.Exchanged())
		next()
	}, nil)
	eng.Run(des.MaxTime)
	if d.Exchanged() <= 0 || eng.Now() != iters*computeT+d.Exchanged() {
		t.Errorf("clock %v after %d iterations of %v, exchange %v: want the sum", eng.Now(), iters, computeT, d.Exchanged())
	}
	for i := 1; i < len(atBoundary); i++ {
		if step := atBoundary[i] - atBoundary[i-1]; step != atBoundary[0] {
			t.Errorf("iteration %d exchanged %v, iteration 1 %v: a halo exchange on an idle fabric takes one time", i+1, step, atBoundary[0])
		}
	}

	eng, w = distWorld(t, 4)
	if d, err = NewDistStencil(eng, w, 16, 4, 7.5, computeT); err != nil {
		t.Fatal(err)
	}
	d.Run(iters, nil, nil)
	eng.Run(2*computeT + 2*atBoundary[0] + atBoundary[0]/2) // inside the third exchange
	d.Stop()
	eng.Run(des.MaxTime)
	if d.Iter() != 2 || d.Exchanged() != atBoundary[1] {
		t.Errorf("stopped in the third exchange: %d iterations, exchange %v; want 2 and %v", d.Iter(), d.Exchanged(), atBoundary[1])
	}

	eng = des.NewEngine()
	k, err := NewStencil2D(mem.NewAddressSpace(mem.Config{PageSize: 4096}), 8, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSolo(eng, k, computeT)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(3, nil, nil)
	eng.Run(des.MaxTime)
	if s.Exchanged() != 0 || eng.Now() != 3*computeT {
		t.Errorf("solo: exchange %v, clock %v; want 0 and %v", s.Exchanged(), eng.Now(), 3*computeT)
	}
}
