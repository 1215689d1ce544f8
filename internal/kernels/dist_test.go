package kernels

import (
	"math/bits"
	"testing"

	"repro/internal/des"
	"repro/internal/mem"
	"repro/internal/mpi"
)

func distWorld(t *testing.T, ranks int) (*des.Engine, *mpi.World) {
	t.Helper()
	eng := des.NewEngine()
	spaces := make([]*mem.AddressSpace, ranks)
	for i := range spaces {
		spaces[i] = mem.NewAddressSpace(mem.Config{PageSize: 4096})
	}
	w, err := mpi.NewWorld(eng, mpi.QsNet(), mpi.Bounce, spaces)
	if err != nil {
		t.Fatal(err)
	}
	return eng, w
}

func TestDistStencilMatchesGlobalReference(t *testing.T) {
	const nx, rows, ranks, iters = 16, 4, 4, 10
	eng, w := distWorld(t, ranks)
	d, err := NewDistStencil(eng, w, nx, rows, 7.5, 10*des.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	done := false
	d.Run(iters, nil, func() { done = true })
	eng.Run(des.MaxTime)
	if !done {
		t.Fatal("distributed run never completed")
	}
	if d.Iter() != iters {
		t.Fatalf("iterations = %d", d.Iter())
	}
	got, err := d.Gather()
	if err != nil {
		t.Fatal(err)
	}
	want, err := GlobalReference(nx, rows, ranks, iters, 7.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("lengths: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cell %d: distributed %v != global %v (bit-exactness lost)", i, got[i], want[i])
		}
	}
}

func TestDistStencilSingleRank(t *testing.T) {
	eng, w := distWorld(t, 1)
	d, err := NewDistStencil(eng, w, 12, 6, 3, des.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	done := false
	d.Run(5, nil, func() { done = true })
	eng.Run(des.MaxTime)
	if !done {
		t.Fatal("single-rank run never completed")
	}
	got, _ := d.Gather()
	want, _ := GlobalReference(12, 6, 1, 5, 3)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cell %d mismatch", i)
		}
	}
}

func TestDistStencilIterationHook(t *testing.T) {
	eng, w := distWorld(t, 2)
	d, _ := NewDistStencil(eng, w, 8, 3, 1, des.Millisecond)
	var hooks []int
	d.Run(4, func(iter int, next func()) {
		hooks = append(hooks, iter)
		// Insert a virtual pause before resuming — like a checkpoint.
		eng.After(50*des.Millisecond, next)
	}, nil)
	eng.Run(des.MaxTime)
	if len(hooks) != 4 || hooks[0] != 1 || hooks[3] != 4 {
		t.Fatalf("hooks = %v", hooks)
	}
	// Pauses must show in virtual time: 4 iterations x (exchange +
	// 1ms compute + 50ms pause) > 200ms.
	if eng.Now() < 200*des.Millisecond {
		t.Fatalf("elapsed %v too short for paused iterations", eng.Now())
	}
}

func TestDistStencilStop(t *testing.T) {
	eng, w := distWorld(t, 2)
	d, _ := NewDistStencil(eng, w, 8, 3, 1, des.Millisecond)
	finished := false
	d.Run(1000, func(iter int, next func()) {
		if iter == 3 {
			d.Stop()
			return // never resume
		}
		next()
	}, func() { finished = true })
	eng.Run(des.MaxTime)
	if finished {
		t.Fatal("stopped run reported completion")
	}
	if d.Iter() != 3 {
		t.Fatalf("iterations after stop = %d", d.Iter())
	}
}

func TestDistStencilValidation(t *testing.T) {
	eng, w := distWorld(t, 2)
	if _, err := NewDistStencil(eng, w, 2, 3, 1, des.Millisecond); err == nil {
		t.Fatal("tiny grid accepted")
	}
	if _, err := NewDistStencil(eng, w, 8, 0, 1, des.Millisecond); err == nil {
		t.Fatal("zero rows accepted")
	}
	if _, err := NewDistStencil(eng, w, 8, 3, 1, 0); err == nil {
		t.Fatal("zero compute time accepted")
	}
	// A restore is checked the way a fresh start is, over spaces that
	// hold a valid 8x3 layout.
	if _, err := NewDistStencil(eng, w, 8, 3, 1, des.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := AttachDistStencil(eng, w, 8, 3, des.Millisecond, 2); err != nil {
		t.Fatalf("valid attach refused: %v", err)
	}
	for _, c := range []struct {
		name     string
		nx, rows int
		computeT des.Time
		iter     int
	}{
		{"tiny grid", 2, 3, des.Millisecond, 2},
		{"zero rows", 8, 0, des.Millisecond, 2},
		{"zero compute time", 8, 3, 0, 2},
		{"negative iteration count", 8, 3, des.Millisecond, -1},
	} {
		if _, err := AttachDistStencil(eng, w, c.nx, c.rows, c.computeT, c.iter); err == nil {
			t.Errorf("attach: %s accepted", c.name)
		}
	}
}

func TestDistStencilHaloWritesAreTracked(t *testing.T) {
	// Halo payload deliveries must take write faults on protected grid
	// pages (the §4.2 bounce path), so checkpointers see them.
	eng, w := distWorld(t, 2)
	d, err := NewDistStencil(eng, w, 512, 4, 1, des.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	sp := w.Rank(1).Space()
	var haloFaults int
	// Count only rank 1's current grid; the halo from rank 0 must fault.
	cur := d.grids[1].Cur().Region()
	log := mem.NewDirtyLog(sp)
	log.OnFault = func(r *mem.Region, _, m uint64) {
		if r == cur {
			haloFaults += bits.OnesCount64(m)
		}
	}
	log.Open()
	done := false
	d.Run(1, nil, func() { done = true })
	eng.Run(des.MaxTime)
	if !done {
		t.Fatal("run incomplete")
	}
	if haloFaults == 0 {
		t.Fatal("halo delivery bypassed write-fault tracking")
	}
}

// TestHaloRowDoesNotAllocate: a halo row leaves as the grid storage it
// sits in, within one page or straddling two; reading it allocates
// nothing, and the bytes are the row's, zeros included where a page was
// never written.
func TestHaloRowDoesNotAllocate(t *testing.T) {
	// 384-element rows are 3 KB: on 4 KB pages rows 0, 3 and 4 sit in one
	// page, rows 1 and 2 straddle two. 2048-element rows span four pages,
	// and nothing but SetRow ever writes the middle two.
	for _, nx := range []int{384, 2048} {
		eng, w := distWorld(t, 2)
		d, err := NewDistStencil(eng, w, nx, 6, 2.5, des.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]float64, nx)
		got := make([]float64, nx)
		for y := 0; y < 5; y++ {
			for x := range want {
				want[x] = float64(y*nx+x) + 0.25
			}
			if y == 3 { // as the constructor left it: edges, and zeros between
				clear(want)
				want[0], want[nx-1] = 2.5, 2.5
			} else if err := d.grids[1].SetRow(y, want); err != nil {
				t.Fatal(err)
			}
			if n := testing.AllocsPerRun(20, func() { sinkRow = d.rowBytes(1, y) }); n != 0 {
				t.Errorf("%d-element rows: rowBytes(row %d): %v allocs, want 0", nx, y, n)
			}
			decodeFloats(got, sinkRow)
			if !sameBits(got, want) {
				t.Errorf("%d-element rows: rowBytes(row %d) returned other bytes than the row's", nx, y)
			}
		}
	}
}

var sinkRow []byte

// TestDistStencilIterationAllocs: the halo counter and the callbacks an
// iteration schedules belong to the solver, bound once, and SendData
// copies each halo row into its pooled message record's buffer, so a
// warm iteration allocates nothing — with and without an iteration hook.
func TestDistStencilIterationAllocs(t *testing.T) {
	for _, ranks := range []int{1, 2, 4} {
		for _, hooked := range []bool{false, true} {
			eng, w := distWorld(t, ranks)
			d, err := NewDistStencil(eng, w, 64, 16, 1, des.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if n, want := warmIterationAllocs(t, eng, d, hooked), float64(0); n != want {
				t.Errorf("%d ranks, hook %v: warm iteration: %v allocs, want %v (the SendData payloads reuse their records' buffers)", ranks, hooked, n, want)
			}
		}
	}
}

func BenchmarkDistStencilIteration(b *testing.B) {
	eng := des.NewEngine()
	spaces := make([]*mem.AddressSpace, 4)
	for i := range spaces {
		spaces[i] = mem.NewAddressSpace(mem.Config{PageSize: 4096})
	}
	w, _ := mpi.NewWorld(eng, mpi.QsNet(), mpi.Bounce, spaces)
	d, _ := NewDistStencil(eng, w, 64, 16, 1, des.Millisecond)
	b.SetBytes(4 * 64 * 18 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done := false
		d.Run(d.Iter()+1, nil, func() { done = true })
		eng.Run(des.MaxTime)
		if !done {
			b.Fatal("iteration incomplete")
		}
	}
}

// mpiWorld builds a world over existing spaces (recovery-path helper for
// tests).
func mpiWorld(eng *des.Engine, spaces []*mem.AddressSpace) (*mpi.World, error) {
	return mpi.NewWorld(eng, mpi.QsNet(), mpi.Bounce, spaces)
}
