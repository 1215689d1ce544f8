package kernels

import (
	"math"
	"math/cmplx"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func space() *mem.AddressSpace {
	return mem.NewAddressSpace(mem.Config{PageSize: 4096})
}

// at reads element i.
func at(a *Array, i int) (float64, error) {
	var one [1]float64
	err := a.Read(one[:], i)
	return one[0], err
}

// transform runs every remaining pass and returns the spectrum.
func transform(f *FFT) ([]complex128, error) {
	for p := 0; p < log2(f.n); p++ {
		if err := f.Step(); err != nil {
			return nil, err
		}
	}
	return f.result()
}

func TestArrayBasics(t *testing.T) {
	sp := space()
	a, err := freshArenas(sp).array(1000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := freshArenas(sp).array(0); err == nil {
		t.Fatal("zero-length array accepted")
	}
	src := []float64{1.5, -2.25, math.Pi}
	if err := a.Write(src, 10); err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, 3)
	if err := a.Read(dst, 10); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("round trip: %v != %v", dst, src)
		}
	}
	if v, _ := at(a, 11); v != -2.25 {
		t.Fatalf("At(11) = %v", v)
	}
	// Bounds.
	if err := a.Write(src, 999); err == nil {
		t.Fatal("overflow write accepted")
	}
	if err := a.Read(dst, -1); err == nil {
		t.Fatal("negative offset accepted")
	}
	sum, err := a.checksum()
	if want := 1.5 - 2.25 + math.Pi; err != nil || sum != want {
		t.Fatalf("Checksum = %v, %v; want %v", sum, err, want)
	}
}

// Property: Write/Read round-trips arbitrary finite float64s.
func TestPropertyArrayRoundTrip(t *testing.T) {
	sp := space()
	a, _ := freshArenas(sp).array(256)
	f := func(vals []float64, off uint8) bool {
		if len(vals) > 200 {
			vals = vals[:200]
		}
		o := int(off) % 56
		if err := a.Write(vals, o); err != nil {
			return false
		}
		got := make([]float64, len(vals))
		if err := a.Read(got, o); err != nil {
			return false
		}
		for i := range vals {
			// NaN round-trips bit-exactly but compares unequal.
			if got[i] != vals[i] && !(math.IsNaN(got[i]) && math.IsNaN(vals[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestStencilConvergesToBoundary(t *testing.T) {
	sp := space()
	s, err := NewStencil2D(sp, 16, 16, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.run(400); err != nil {
		t.Fatal(err)
	}
	// With all boundaries at 10 and Laplace's equation, the interior
	// converges to 10 everywhere.
	v, err := at(s.Cur(), 8*16+8)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-10) > 0.01 {
		t.Fatalf("interior = %v, want ~10", v)
	}
	if s.Iter() != 400 {
		t.Fatalf("Iter = %d", s.Iter())
	}
}

func TestStencilMaximumPrinciple(t *testing.T) {
	sp := space()
	s, _ := NewStencil2D(sp, 12, 12, 5)
	for i := 0; i < 50; i++ {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
		// Every interior value stays within [min, max] of the data —
		// here [0, 5] since the interior started at 0.
		row := make([]float64, 12)
		for y := 1; y < 11; y++ {
			s.Cur().Read(row, y*12)
			for x := 1; x < 11; x++ {
				if row[x] < -1e-12 || row[x] > 5+1e-12 {
					t.Fatalf("maximum principle violated: %v", row[x])
				}
			}
		}
	}
}

func TestStencilDoubleBufferAlternation(t *testing.T) {
	// Consecutive stencil iterations must dirty different arenas —
	// the real-code analogue of the workloads' AltShift.
	sp := space()
	s, _ := NewStencil2D(sp, 64, 64, 1)
	dirtyRegions := func() map[*mem.Region]bool {
		log := mem.NewDirtyLog(sp)
		log.Open()
		defer log.Close()
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
		out := map[*mem.Region]bool{}
		for _, r := range sp.Regions() {
			out[r] = log.Pages(r) != nil
		}
		return out
	}
	d1 := dirtyRegions()
	d2 := dirtyRegions()
	if d1[s.a.Region()] == d1[s.b.Region()] {
		t.Fatal("one iteration dirtied both (or neither) buffers")
	}
	if d1[s.a.Region()] == d2[s.a.Region()] {
		t.Fatal("consecutive iterations dirtied the same buffer")
	}
}

func TestSSORConverges(t *testing.T) {
	sp := space()
	s, err := newSSOR(freshArenas(sp), 16, 16, 0, 4, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	v, _ := at(s.u, 8*16+8)
	if math.Abs(v-4) > 0.01 {
		t.Fatalf("SSOR interior = %v, want ~4", v)
	}
	if s.Iter() != 60 {
		t.Fatalf("Iter = %d", s.Iter())
	}
}

func TestSSORValidation(t *testing.T) {
	sp := space()
	if _, err := newSSOR(freshArenas(sp), 2, 16, 0, 1, 1); err == nil {
		t.Fatal("tiny grid accepted")
	}
	if _, err := newSSOR(freshArenas(sp), 16, 16, 0, 1, 2.5); err == nil {
		t.Fatal("omega out of range accepted")
	}
}

func TestSSORFasterThanJacobi(t *testing.T) {
	// SSOR with over-relaxation must reach a given accuracy in fewer
	// iterations than plain Jacobi — the reason LU uses it.
	target := 4.0
	jacobiIters := func() int {
		s, _ := NewStencil2D(space(), 16, 16, target)
		for i := 1; ; i++ {
			s.Step()
			v, _ := at(s.Cur(), 8*16+8)
			if math.Abs(v-target) < 0.05 {
				return i
			}
			if i > 2000 {
				return i
			}
		}
	}()
	ssorIters := func() int {
		s, _ := newSSOR(freshArenas(space()), 16, 16, 0, target, 1.5)
		for i := 1; ; i++ {
			s.Step()
			v, _ := at(s.u, 8*16+8)
			if math.Abs(v-target) < 0.05 {
				return i
			}
			if i > 2000 {
				return i
			}
		}
	}()
	if ssorIters >= jacobiIters {
		t.Fatalf("SSOR (%d iters) not faster than Jacobi (%d)", ssorIters, jacobiIters)
	}
}

// wavefrontReference replays the same sweeps on plain Go slices.
func wavefrontReference(nx, ny, iters int, seed float64) []float64 {
	v := make([]float64, nx*ny)
	for x := 0; x < nx; x++ {
		v[x] = seed
	}
	for y := 1; y < ny; y++ {
		v[y*nx] = seed
	}
	sweep := func(ox, oy int) {
		for i := 1; i < ny; i++ {
			y := i
			if oy == 1 {
				y = ny - 1 - i
			}
			py := y - 1
			if oy == 1 {
				py = y + 1
			}
			for j := 1; j < nx; j++ {
				x := j
				if ox == 1 {
					x = nx - 1 - j
				}
				ux := x - 1
				if ox == 1 {
					ux = x + 1
				}
				v[y*nx+x] = 0.5*v[y*nx+ux] + 0.5*v[py*nx+x] + 0.01
			}
		}
	}
	for it := 0; it < iters; it++ {
		for _, c := range [][2]int{{0, 0}, {1, 0}, {0, 1}, {1, 1}} {
			sweep(c[0], c[1])
		}
	}
	return v
}

func TestWavefrontMatchesReference(t *testing.T) {
	sp := space()
	w, err := newWavefront(freshArenas(sp), 12, 9, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.Step(); err != nil {
			t.Fatal(err)
		}
	}
	want := wavefrontReference(12, 9, 3, 3)
	got := make([]float64, 12*9)
	if err := w.v.Read(got, 0); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("cell %d: %v != %v", i, got[i], want[i])
		}
	}
	if w.Iter() != 3 {
		t.Fatalf("Iter = %d", w.Iter())
	}
}

func TestADISmoothing(t *testing.T) {
	sp := space()
	a, err := newADI(freshArenas(sp), 12, 12, 0, 9, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	before, _ := a.u.checksum()
	for i := 0; i < 5; i++ {
		if err := a.Step(); err != nil {
			t.Fatal(err)
		}
	}
	after, _ := a.u.checksum()
	// The implicit operator damps the solution toward zero (homogeneous
	// Dirichlet at the implicit boundaries) while keeping it positive
	// and bounded.
	if !(after < before) || after <= 0 {
		t.Fatalf("ADI did not damp: before=%v after=%v", before, after)
	}
	if a.Iter() != 5 {
		t.Fatalf("Iter = %d", a.Iter())
	}
}

func TestADIValidation(t *testing.T) {
	sp := space()
	if _, err := newADI(freshArenas(sp), 2, 12, 0, 1, 0.5); err == nil {
		t.Fatal("tiny grid accepted")
	}
	if _, err := newADI(freshArenas(sp), 12, 12, 0, 1, 0); err == nil {
		t.Fatal("zero lambda accepted")
	}
}

func TestThomasSolvesTridiagonal(t *testing.T) {
	// Verify (1+2L)x_i - L x_{i-1} - L x_{i+1} = d reproduces d from a
	// known x.
	lambda := 0.7
	n := 9
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(float64(i))
	}
	d := make([]float64, n)
	for i := 0; i < n; i++ {
		d[i] = (1 + 2*lambda) * x[i]
		if i > 0 {
			d[i] -= lambda * x[i-1]
		}
		if i < n-1 {
			d[i] -= lambda * x[i+1]
		}
	}
	thomas(d, make([]float64, n), lambda)
	for i := range x {
		if math.Abs(d[i]-x[i]) > 1e-10 {
			t.Fatalf("thomas: x[%d] = %v, want %v", i, d[i], x[i])
		}
	}
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	for _, n := range []int{2, 8, 64, 256} {
		f, err := newFFT(freshArenas(space()), n, 0)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(uint64(n), 5))
		signal := make([]complex128, n)
		for i := range signal {
			signal[i] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
		}
		if err := f.load(signal); err != nil {
			t.Fatal(err)
		}
		got, err := transform(f)
		if err != nil {
			t.Fatal(err)
		}
		want := NaiveDFT(signal)
		for k := range want {
			if cmplx.Abs(got[k]-want[k]) > 1e-9*float64(n) {
				t.Fatalf("n=%d bin %d: %v != %v", n, k, got[k], want[k])
			}
		}
	}
}

func TestFFTValidation(t *testing.T) {
	if _, err := newFFT(freshArenas(space()), 12, 0); err == nil {
		t.Fatal("non-power-of-two accepted")
	}
	f, _ := newFFT(freshArenas(space()), 8, 0)
	if err := f.load(make([]complex128, 5)); err == nil {
		t.Fatal("wrong input length accepted")
	}
}

// TestFFTWarmPassAllocFree: a pass reads, butterflies and writes
// through the handle's own scratch, so once the first Step made it, a
// pass allocates nothing.
func TestFFTWarmPassAllocFree(t *testing.T) {
	f, err := newFFT(freshArenas(space()), 256, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.load(make([]complex128, 256)); err != nil {
		t.Fatal(err)
	}
	if _, err := transform(f); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() {
		f.pass %= log2(f.n)
		if err := f.Step(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("a warm FFT pass allocates %v times, want 0", n)
	}
}

// Property: FFT of a pure tone concentrates all energy in one bin.
func TestPropertyFFTPureTone(t *testing.T) {
	f := func(seed uint64) bool {
		const n = 128
		rng := rand.New(rand.NewPCG(seed, 6))
		bin := rng.IntN(n)
		signal := make([]complex128, n)
		for t := range signal {
			angle := 2 * math.Pi * float64(bin) * float64(t) / float64(n)
			signal[t] = cmplx.Exp(complex(0, angle))
		}
		fft, err := newFFT(freshArenas(space()), n, 0)
		if err != nil {
			return false
		}
		if fft.load(signal) != nil {
			return false
		}
		out, err := transform(fft)
		if err != nil {
			return false
		}
		for k := range out {
			mag := cmplx.Abs(out[k])
			if k == bin && math.Abs(mag-n) > 1e-6 {
				return false
			}
			if k != bin && mag > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: Parseval's theorem holds for random signals.
func TestPropertyFFTParseval(t *testing.T) {
	f := func(seed uint64) bool {
		const n = 64
		rng := rand.New(rand.NewPCG(seed, 7))
		signal := make([]complex128, n)
		var timeE float64
		for i := range signal {
			signal[i] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
			timeE += real(signal[i])*real(signal[i]) + imag(signal[i])*imag(signal[i])
		}
		fft, _ := newFFT(freshArenas(space()), n, 0)
		fft.load(signal)
		out, err := transform(fft)
		if err != nil {
			return false
		}
		var freqE float64
		for _, c := range out {
			freqE += real(c)*real(c) + imag(c)*imag(c)
		}
		return math.Abs(freqE/float64(n)-timeE) < 1e-9*timeE+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkStencilStep(b *testing.B) {
	s, _ := NewStencil2D(space(), 128, 128, 1)
	b.SetBytes(128 * 128 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFFT1K(b *testing.B) {
	f, _ := newFFT(freshArenas(space()), 1024, 0)
	signal := make([]complex128, 1024)
	for i := range signal {
		signal[i] = complex(float64(i%7), 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.load(signal)
		if _, err := transform(f); err != nil {
			b.Fatal(err)
		}
	}
}

// TestArrayRowIOZeroAlloc: row reads and writes code floats in place in
// the pages a mem.PageRun lends — a value, no staging buffer — so over
// warm pages they allocate nothing, and neither does a whole Jacobi
// sweep.
func TestArrayRowIOZeroAlloc(t *testing.T) {
	a, err := freshArenas(space()).array(64 * 256)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]float64, 256)
	for i := range row {
		row[i] = float64(i) + 0.5
	}
	back := make([]float64, 256)
	if allocs := testing.AllocsPerRun(100, func() {
		if err := a.Write(row, 3*256); err != nil {
			t.Fatal(err)
		}
		if err := a.Read(back, 3*256); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Array.Write+Read of a warm row: %v allocs, want 0", allocs)
	}
	for i := range row {
		if back[i] != row[i] {
			t.Fatalf("row[%d] read back %v, wrote %v", i, back[i], row[i])
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { at(a, 7) }); allocs != 0 {
		t.Errorf("Array.At after a row access: %v allocs, want 0", allocs)
	}

	s, err := NewStencil2D(space(), 64, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	s.run(2) // both buffers' pages and the row scratch exist
	if allocs := testing.AllocsPerRun(10, func() {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Stencil2D.Step: %v allocs, want 0", allocs)
	}
}

// BenchmarkArrayRowIO is the supervised stencil's row traffic: one
// 256-element row written and read back.
func BenchmarkArrayRowIO(b *testing.B) {
	a, _ := freshArenas(space()).array(64 * 256)
	row := make([]float64, 256)
	b.SetBytes(2 * 256 * 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := (i % 64) * 256
		if err := a.Write(row, off); err != nil {
			b.Fatal(err)
		}
		if err := a.Read(row, off); err != nil {
			b.Fatal(err)
		}
	}
}
