package kernels

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/des"
	"repro/internal/mem"
	"repro/internal/mpi"
)

// stagingArray is Array's row I/O as it was before it worked in place:
// floats coded element by element through a byte buffer that
// AddressSpace.Write and Read copy to and from memory. It is kept as the
// reference the in-place path is compared against (and as the loop
// shape BenchmarkFloatCodec measures the codec against).
type stagingArray struct {
	space *mem.AddressSpace
	base  uint64
	buf   []byte
}

func naiveDecode(dst []float64, buf []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
	}
}

func naiveEncode(buf []byte, src []float64) {
	for i, v := range src {
		binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(v))
	}
}

func (a *stagingArray) staging(n int) []byte {
	if cap(a.buf) < n*8 {
		a.buf = make([]byte, n*8)
	}
	return a.buf[:n*8]
}

func (a *stagingArray) Read(dst []float64, off int) error {
	buf := a.staging(len(dst))
	if err := a.space.Read(a.base+uint64(off)*8, buf); err != nil {
		return err
	}
	naiveDecode(dst, buf)
	return nil
}

func (a *stagingArray) Write(src []float64, off int) error {
	buf := a.staging(len(src))
	naiveEncode(buf, src)
	return a.space.Write(a.base+uint64(off)*8, buf)
}

// awkward are the float64s a codec is most likely to get wrong: both
// zeros, subnormals, infinities, and NaNs with payloads and either sign
// (which compare unequal to themselves, so everything here is compared
// as bits).
var awkward = []float64{
	0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000FFFFFFFFFFFFF), math.MaxFloat64, math.Inf(1), math.Inf(-1),
	math.NaN(), math.Float64frombits(0x7FF0000000000001), math.Float64frombits(0xFFF8DEADBEEF0001),
	math.Float64frombits(0x7FF7FFFFFFFFFFFF), 1, -1.5, math.Pi,
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestFloatCodecBitExact: every length from 0 to 9 at every rotation
// of the awkward values encodes to exactly math.Float64bits, as
// binary.LittleEndian writes it — the check that view's page bytes are
// the wire form — touches nothing past n*8 bytes, and decodes back bit
// for bit.
func TestFloatCodecBitExact(t *testing.T) {
	for n := 0; n <= 9; n++ {
		for rot := range awkward {
			src := make([]float64, n)
			for i := range src {
				src[i] = awkward[(rot+i)%len(awkward)]
			}
			b := make([]byte, n*8+8)
			for i := range b {
				b[i] = 0xA5
			}
			encodeFloats(b, src)
			for i, v := range src {
				if got := binary.LittleEndian.Uint64(b[i*8:]); got != math.Float64bits(v) {
					t.Fatalf("n %d rot %d: element %d (%v) encoded as %#x, want %#x", n, rot, i, v, got, math.Float64bits(v))
				}
			}
			if got := binary.LittleEndian.Uint64(b[n*8:]); got != 0xA5A5A5A5A5A5A5A5 {
				t.Fatalf("n %d: encode wrote past its %d bytes", n, n*8)
			}
			dst := make([]float64, n+1)
			dst[n] = 42
			decodeFloats(dst[:n], b)
			if !sameBits(dst[:n], src) || dst[n] != 42 {
				t.Fatalf("n %d rot %d: decoded %v, want %v", n, rot, dst, src)
			}
		}
	}
}

// arrayRig is one address space holding one array, under an open dirty
// log that records the address of every page that faults.
type arrayRig struct {
	space  *mem.AddressSpace
	faults []uint64
	read   func(dst []float64, off int) error
	write  func(src []float64, off int) error
	reg    *mem.Region
}

// onFault records the address of every page a word delivery faults, in
// ascending order.
func (g *arrayRig) onFault(r *mem.Region, w, m uint64) {
	for ; m != 0; m &= m - 1 {
		g.faults = append(g.faults, r.PageAddr(w*64+uint64(bits.TrailingZeros64(m))))
	}
}

func newArrayRig(t *testing.T, ps uint64, staged bool, n int) *arrayRig {
	g := &arrayRig{space: mem.NewAddressSpace(mem.Config{PageSize: ps})}
	log := mem.NewDirtyLog(g.space)
	log.OnFault = g.onFault
	log.Open()
	a, err := freshArenas(g.space).array(n)
	if err != nil {
		t.Fatal(err)
	}
	g.reg, g.read, g.write = a.Region(), a.Read, a.Write
	if staged {
		old := &stagingArray{space: g.space, base: a.base}
		g.read, g.write = old.Read, old.Write
	}
	return g
}

// TestArrayMatchesStagingOracle: one script — row writes and reads that
// start mid-page, end mid-page and span three pages and more, over pages
// never written, with the array re-protected now and then — driven
// through the old staging implementation on one space and the in-place
// one on another. Equal before and after, for every page size: the
// values read (as bits), the space Digest, Faults(), WrittenBytes() and
// the sequence of faulting pages. (Arrays refuse a phantom space:
// TestArrayRefusesSubElementPages.)
func TestArrayMatchesStagingOracle(t *testing.T) {
	for _, ps := range []uint64{8, 256, 4096, 16384} {
		perPage := int(ps / 8)
		n := 5*perPage + 3
		rng := rand.New(rand.NewPCG(ps, 24))
		old, cur := newArrayRig(t, ps, true, n), newArrayRig(t, ps, false, n)
		var spanned bool
		for step := 0; step < 150; step++ {
			off := rng.IntN(n)
			k := 1 + rng.IntN(min(n-off, 3*perPage+perPage/2+2))
			if step%10 == 0 { // from the middle of page 0 to the middle of page 3
				off, k = perPage/2, 3*perPage
			}
			spanned = spanned || (off+k-1)/perPage-off/perPage >= 3
			where := fmt.Sprintf("page size %d step %d: [%d,%d)", ps, step, off, off+k)
			switch op := rng.IntN(8); {
			case op < 4:
				vals := make([]float64, k)
				for i := range vals {
					if vals[i] = rng.NormFloat64(); rng.IntN(4) == 0 {
						vals[i] = awkward[rng.IntN(len(awkward))]
					}
				}
				if errOld, errCur := old.write(vals, off), cur.write(vals, off); errOld != nil || errCur != nil {
					t.Fatalf("%s: write: staging %v, in place %v", where, errOld, errCur)
				}
			case op < 7:
				want, got := make([]float64, k), make([]float64, k)
				for i := range got {
					got[i] = 99 // a never-written page must overwrite this with zero
				}
				if errOld, errCur := old.read(want, off), cur.read(got, off); errOld != nil || errCur != nil {
					t.Fatalf("%s: read: staging %v, in place %v", where, errOld, errCur)
				}
				if !sameBits(got, want) {
					t.Fatalf("%s: read different values", where)
				}
			default:
				old.reg.ProtectAll()
				cur.reg.ProtectAll()
			}
			if old.space.Faults() != cur.space.Faults() || old.space.WrittenBytes() != cur.space.WrittenBytes() ||
				!slices.Equal(old.faults, cur.faults) || old.space.Digest(nil) != cur.space.Digest(nil) {
				t.Fatalf("%s: staging left %d faults %d bytes digest %x faulted pages %#x\n in place %d faults %d bytes digest %x faulted pages %#x", where,
					old.space.Faults(), old.space.WrittenBytes(), old.space.Digest(nil), old.faults,
					cur.space.Faults(), cur.space.WrittenBytes(), cur.space.Digest(nil), cur.faults)
			}
		}
		if !spanned || cur.space.Faults() == 0 {
			t.Fatalf("page size %d: the script never spanned three pages or never faulted", ps)
		}
	}
}

// TestArrayRefusesSubElementPages: floats are coded in place in page
// storage, so an element may not straddle pages, and there must be
// storage. Any power of two is a legal page size; below 8 bytes, or on
// a phantom space, the constructors say no — they do not panic later in
// a row access.
func TestArrayRefusesSubElementPages(t *testing.T) {
	for _, c := range []struct {
		ps      uint64
		phantom bool
	}{{1, false}, {2, false}, {4, false}, {4096, true}} {
		ps, where := c.ps, fmt.Sprintf("%d-byte pages (phantom %v)", c.ps, c.phantom)
		sp := mem.NewAddressSpace(mem.Config{PageSize: ps, Phantom: c.phantom})
		if a, err := freshArenas(sp).array(4); err == nil {
			t.Errorf("a fresh array on %s returned %v", where, a)
		}
		sp.Mmap(64)
		if a, err := restoredArenas(sp).array(4); err == nil {
			t.Errorf("a restored array on %s returned %v", where, a)
		}
		if _, err := NewStencil2D(sp, 4, 4, 1); err == nil {
			t.Errorf("NewStencil2D on %s succeeded", where)
		}
		eng := des.NewEngine()
		w, err := mpi.NewWorld(eng, mpi.QsNet(), mpi.Direct, []*mem.AddressSpace{sp, mem.NewAddressSpace(mem.Config{PageSize: ps, Phantom: c.phantom})})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewDistPut(eng, w, 16, 1, 1, des.Millisecond); err == nil {
			t.Errorf("NewDistPut on %s succeeded", where)
		}
	}
	sp := mem.NewAddressSpace(mem.Config{PageSize: 8})
	a, err := freshArenas(sp).array(5)
	if err != nil {
		t.Fatalf("an array on 8-byte pages: %v", err)
	}
	if err := a.Write(awkward[:5], 0); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, 5)
	if err := a.Read(got, 0); err != nil || !sameBits(got, awkward[:5]) {
		t.Fatalf("one element per page read back %v, %v", got, err)
	}
}

// BenchmarkFloatCodec is the codec rung: one 256-element row decoded
// from, and encoded into, a 2 KB buffer — one copy each — and the
// element-by-element binary.LittleEndian loop, measured in the same run.
func BenchmarkFloatCodec(b *testing.B) {
	row := make([]float64, 256)
	for i := range row {
		row[i] = float64(i) + 0.5
	}
	buf := make([]byte, 256*8)
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"decode", func() { decodeFloats(row, buf) }},
		{"encode", func() { encodeFloats(buf, row) }},
		{"naive-decode", func() { naiveDecode(row, buf) }},
		{"naive-encode", func() { naiveEncode(buf, row) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(buf)))
			for i := 0; i < b.N; i++ {
				c.fn()
			}
		})
	}
}

// staged is a's staging oracle.
func staged(a *Array) *stagingArray { return &stagingArray{space: a.space, base: a.base} }

// stagingStep is Stencil2D.Step as it was before it read rows in place:
// every row loaded into a buffer of its own, and every access coded
// element by element through the staging oracle. The in-place Step is
// held to it.
func stagingStep(s *Stencil2D) error {
	cur, nxt, work := staged(s.Cur()), staged(s.next()), staged(s.work)
	nx := s.nx
	up, mid, down, out := make([]float64, nx), make([]float64, nx), make([]float64, nx), make([]float64, nx)
	if err := cur.Read(mid, 0); err != nil {
		return err
	}
	if err := cur.Read(down, nx); err != nil {
		return err
	}
	for y := 1; y < s.ny-1; y++ {
		up, mid, down = mid, down, up
		if err := cur.Read(down, (y+1)*nx); err != nil {
			return err
		}
		out[0], out[nx-1] = mid[0], mid[nx-1]
		for x := 1; x < nx-1; x++ {
			out[x] = 0.25 * (up[x] + down[x] + mid[x-1] + mid[x+1])
		}
		if err := work.Write(out, 0); err != nil {
			return err
		}
		if err := work.Read(out, 0); err != nil {
			return err
		}
		if err := nxt.Write(out, y*nx); err != nil {
			return err
		}
	}
	s.iter++
	return nil
}

// stagingSSORStep, stagingWavefrontStep and stagingADIStep are the
// solvers' iterations as they were before they read through load views:
// every row or element loaded into a buffer of its own, every relaxed,
// swept or solved row read back from the scratch arena after it is
// written there, and every access coded element by element through the
// staging oracle. The in-place solvers are held to them.
func stagingSSORStep(s *SSOR) error {
	u, work := staged(s.u), staged(s.work)
	for _, backward := range []bool{false, true} {
		up := make([]float64, s.nx)
		mid := make([]float64, s.nx)
		down := make([]float64, s.nx)
		ys := make([]int, 0, s.ny-2)
		if backward {
			for y := s.ny - 2; y >= 1; y-- {
				ys = append(ys, y)
			}
		} else {
			for y := 1; y < s.ny-1; y++ {
				ys = append(ys, y)
			}
		}
		for _, y := range ys {
			if err := u.Read(up, (y-1)*s.nx); err != nil {
				return err
			}
			if err := u.Read(mid, y*s.nx); err != nil {
				return err
			}
			if err := u.Read(down, (y+1)*s.nx); err != nil {
				return err
			}
			if backward {
				for x := s.nx - 2; x >= 1; x-- {
					gs := 0.25 * (up[x] + down[x] + mid[x-1] + mid[x+1])
					mid[x] += s.omega * (gs - mid[x])
				}
			} else {
				for x := 1; x < s.nx-1; x++ {
					gs := 0.25 * (up[x] + down[x] + mid[x-1] + mid[x+1])
					mid[x] += s.omega * (gs - mid[x])
				}
			}
			if err := work.Write(mid, 0); err != nil {
				return err
			}
			if err := work.Read(mid, 0); err != nil {
				return err
			}
			if err := u.Write(mid, y*s.nx); err != nil {
				return err
			}
		}
	}
	s.iter++
	return nil
}

func stagingWavefrontStep(w *Wavefront) error {
	v, work := staged(w.v), staged(w.work)
	for _, c := range [][2]int{{0, 0}, {1, 0}, {0, 1}, {1, 1}} {
		ox, oy := c[0], c[1]
		prev := make([]float64, w.nx)
		cur := make([]float64, w.nx)
		for i := 0; i < w.ny; i++ {
			y := i
			if oy == 1 {
				y = w.ny - 1 - i
			}
			if err := v.Read(cur, y*w.nx); err != nil {
				return err
			}
			if i > 0 {
				for j := 1; j < w.nx; j++ {
					x := j
					if ox == 1 {
						x = w.nx - 1 - j
					}
					upwindX := x - 1
					if ox == 1 {
						upwindX = x + 1
					}
					cur[x] = 0.5*cur[upwindX] + 0.5*prev[x] + 0.01
				}
				if err := work.Write(cur, 0); err != nil {
					return err
				}
				if err := work.Read(cur, 0); err != nil {
					return err
				}
				if err := v.Write(cur, y*w.nx); err != nil {
					return err
				}
			}
			prev, cur = cur, prev
		}
	}
	w.iter++
	return nil
}

func stagingADIStep(a *ADI) error {
	u, work := staged(a.u), staged(a.work)
	row := make([]float64, a.nx)
	for y := 0; y < a.ny; y++ {
		if err := u.Read(row, y*a.nx); err != nil {
			return err
		}
		thomas(row, make([]float64, a.nx), a.lambda)
		if err := work.Write(row, 0); err != nil {
			return err
		}
		if err := work.Read(row, 0); err != nil {
			return err
		}
		if err := u.Write(row, y*a.nx); err != nil {
			return err
		}
	}
	col := make([]float64, a.ny)
	one := make([]float64, 1)
	for x := 0; x < a.nx; x++ {
		for y := 0; y < a.ny; y++ {
			if err := u.Read(one, y*a.nx+x); err != nil {
				return err
			}
			col[y] = one[0]
		}
		thomas(col, make([]float64, a.ny), a.lambda)
		if err := work.Write(col, a.nx); err != nil {
			return err
		}
		if err := work.Read(col, a.nx); err != nil {
			return err
		}
		for y := 0; y < a.ny; y++ {
			one[0] = col[y]
			if err := u.Write(one, y*a.nx+x); err != nil {
				return err
			}
		}
	}
	a.iter++
	return nil
}

// TestSolversMatchStagingOracle: SSOR, Wavefront and ADI read their grid
// through load views and write exactly as their staging bodies did. For
// each, over several iterations on pages of 8 to 16,384 bytes — rows
// that span pages, share one or straddle a boundary, and pages never
// written — with the grid, the scratch arena or both re-protected
// between iterations, the solver and its staging body leave the same
// Faults(), WrittenBytes(), faulting-page sequence and space Digest, and
// the same grid bit for bit. A warm iteration allocates nothing.
func TestSolversMatchStagingOracle(t *testing.T) {
	type built struct {
		step, staging func() error
		grid, work    *Array
	}
	for _, k := range []struct {
		name  string
		build func(sp *mem.AddressSpace, nx, ny int) (built, error)
	}{
		{"SSOR", func(sp *mem.AddressSpace, nx, ny int) (built, error) {
			s, err := newSSOR(freshArenas(sp), nx, ny, 0, 1.5, 1.3)
			if err != nil {
				return built{}, err
			}
			return built{s.Step, func() error { return stagingSSORStep(s) }, s.u, s.work}, nil
		}},
		{"Wavefront", func(sp *mem.AddressSpace, nx, ny int) (built, error) {
			w, err := newWavefront(freshArenas(sp), nx, ny, 0, 0.75)
			if err != nil {
				return built{}, err
			}
			return built{w.Step, func() error { return stagingWavefrontStep(w) }, w.v, w.work}, nil
		}},
		{"ADI", func(sp *mem.AddressSpace, nx, ny int) (built, error) {
			a, err := newADI(freshArenas(sp), nx, ny, 0, 2.5, 0.4)
			if err != nil {
				return built{}, err
			}
			return built{a.Step, func() error { return stagingADIStep(a) }, a.u, a.work}, nil
		}},
	} {
		for _, c := range []struct {
			ps     uint64
			nx, ny int
		}{{8, 5, 7}, {256, 40, 9}, {4096, 300, 12}, {16384, 4500, 6}} {
			name := fmt.Sprintf("%s, page size %d, %dx%d", k.name, c.ps, c.nx, c.ny)
			rng := rand.New(rand.NewPCG(c.ps, uint64(c.nx)))
			seeded := make([]float64, c.nx)
			for i := range seeded {
				if seeded[i] = rng.NormFloat64(); rng.IntN(5) == 0 {
					seeded[i] = awkward[rng.IntN(5)] // zeros and subnormals: infinities and NaNs would flood the grid
				}
			}
			build := func() (built, *arrayRig) {
				g := &arrayRig{space: mem.NewAddressSpace(mem.Config{PageSize: c.ps})}
				log := mem.NewDirtyLog(g.space)
				log.OnFault = g.onFault
				log.Open()
				b, err := k.build(g.space, c.nx, c.ny)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if err := b.grid.Write(seeded[1:c.nx-1], c.ny/2*c.nx+1); err != nil {
					t.Fatal(err)
				}
				return b, g
			}
			s, cur := build()
			oracle, old := build()
			got, want := make([]float64, c.nx*c.ny), make([]float64, c.nx*c.ny)
			for it := 1; it <= 6; it++ {
				var protect []*Array
				switch it % 3 {
				case 0:
					protect = []*Array{s.grid, s.work, oracle.grid, oracle.work}
				case 1:
					protect = []*Array{s.work, oracle.work}
				case 2:
					protect = []*Array{s.grid, oracle.grid}
				}
				for _, a := range protect {
					a.Region().ProtectAll()
				}
				if errCur, errOld := s.step(), oracle.staging(); errCur != nil || errOld != nil {
					t.Fatalf("%s iteration %d: in place %v, staging %v", name, it, errCur, errOld)
				}
				if err := s.grid.Read(got, 0); err != nil {
					t.Fatal(err)
				}
				if err := oracle.grid.Read(want, 0); err != nil {
					t.Fatal(err)
				}
				if !sameBits(got, want) {
					t.Fatalf("%s iteration %d: the grid is not the staging body's", name, it)
				}
				if old.space.Faults() != cur.space.Faults() || old.space.WrittenBytes() != cur.space.WrittenBytes() ||
					!slices.Equal(old.faults, cur.faults) || old.space.Digest(nil) != cur.space.Digest(nil) {
					t.Fatalf("%s iteration %d: staging left %d faults %d bytes digest %x faulted pages %#x\n in place %d faults %d bytes digest %x faulted pages %#x",
						name, it, old.space.Faults(), old.space.WrittenBytes(), old.space.Digest(nil), old.faults,
						cur.space.Faults(), cur.space.WrittenBytes(), cur.space.Digest(nil), cur.faults)
				}
			}
			if len(cur.faults) == 0 {
				t.Fatalf("%s: no iteration faulted", name)
			}
			if n := testing.AllocsPerRun(3, func() {
				if err := s.step(); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("%s: warm iteration: %v allocs, want 0", name, n)
			}
		}
	}
}

// jacobi is one sweep of the plain-[]float64 Jacobi iteration over an
// nx-wide grid, in Step's order of operations: rows 0 and ny-1 and
// every row's edge elements carry over, each interior cell is the mean
// of its four neighbours.
func jacobi(g []float64, nx int) []float64 {
	next := slices.Clone(g)
	for y := nx; y+2*nx <= len(g); y += nx {
		for x := y + 1; x < y+nx-1; x++ {
			next[x] = 0.25 * (g[x-nx] + g[x+nx] + g[x-1] + g[x+1])
		}
	}
	return next
}

// TestStencilMatchesReference: Step reads its rows as views of page
// storage where it can. Over several sweeps, with the grids re-protected
// now and then as an incremental checkpointer does, its grid is the
// plain Jacobi iteration's bit for bit, and its memory traffic — Faults(),
// WrittenBytes(), the faulting-page sequence and the space Digest — is
// the staging Step's. The grids cover rows that span pages (8- and
// 256-byte pages), rows that share one (4096: two a page) or straddle a
// page boundary (16384, 2400-byte rows), and pages never written, which
// must read as zeros: a grid built over restored, never-written arenas,
// of which only a few rows were ever set. Some cases re-protect one
// arena alone before every sweep — only the scratch row, or only the
// grid the sweep writes — so a sweep
// faults on the scratch page alone or on the grid's pages alone. A warm
// Step allocates nothing.
func TestStencilMatchesReference(t *testing.T) {
	for _, c := range []struct {
		ps       uint64
		nx, ny   int
		attached bool   // built over restored, never-written arenas: rows never set are pages never written
		only     string // "work" or "next": re-protect that arena alone, every sweep
	}{
		{8, 5, 7, false, ""}, {256, 40, 9, false, ""}, {256, 100, 6, false, ""},
		{4096, 256, 12, false, ""}, {16384, 300, 20, false, ""}, {16384, 256, 40, true, ""},
		{8, 5, 7, false, "work"}, {4096, 256, 12, false, "work"}, {16384, 300, 20, false, "work"},
		{8, 5, 7, false, "next"}, {4096, 256, 12, false, "next"}, {16384, 300, 20, false, "next"},
	} {
		name := fmt.Sprintf("page size %d, %dx%d, attached %v, re-protect %q", c.ps, c.nx, c.ny, c.attached, c.only)
		rng := rand.New(rand.NewPCG(c.ps, uint64(c.nx)))
		ref := make([]float64, c.nx*c.ny)
		if !c.attached {
			for y := 0; y < c.ny; y++ {
				for _, x := range []int{0, c.nx - 1} {
					ref[y*c.nx+x] = 1.5
				}
				if y == 0 || y == c.ny-1 {
					for x := range c.nx {
						ref[y*c.nx+x] = 1.5
					}
				}
			}
		}
		seeded := []int{0, c.ny - 1, c.ny / 2}
		for _, y := range seeded {
			for x := range c.nx {
				if ref[y*c.nx+x] = rng.NormFloat64(); rng.IntN(5) == 0 {
					ref[y*c.nx+x] = awkward[rng.IntN(len(awkward))]
				}
			}
		}
		build := func() (*Stencil2D, *arrayRig) {
			g := &arrayRig{space: mem.NewAddressSpace(mem.Config{PageSize: c.ps})}
			log := mem.NewDirtyLog(g.space)
			log.OnFault = g.onFault
			log.Open()
			var s *Stencil2D
			var err error
			if c.attached {
				for _, n := range []int{c.nx * c.ny, c.nx * c.ny, c.nx} {
					if _, err = g.space.Mmap(uint64(n) * 8); err != nil {
						t.Fatal(err)
					}
				}
				s, err = newStencil2D(restoredArenas(g.space), c.nx, c.ny, 0, 0)
			} else {
				s, err = NewStencil2D(g.space, c.nx, c.ny, 1.5)
			}
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, y := range seeded {
				if err := s.SetRow(y, ref[y*c.nx:(y+1)*c.nx]); err != nil {
					t.Fatal(err)
				}
			}
			for i := range s.out { // a never-written page must overwrite this with zero
				s.out[i] = 99
			}
			return s, g
		}
		s, cur := build()
		oracle, old := build()
		got := make([]float64, c.nx*c.ny)
		for sweep := 1; sweep <= 6; sweep++ {
			switch {
			case c.only == "work":
				s.work.Region().ProtectAll()
				oracle.work.Region().ProtectAll()
			case c.only == "next":
				s.next().Region().ProtectAll()
				oracle.next().Region().ProtectAll()
			case sweep%3 == 0:
				for _, g := range []*arrayRig{cur, old} {
					for _, r := range g.space.Regions() {
						r.ProtectAll()
					}
				}
			}
			if errCur, errOld := s.Step(), stagingStep(oracle); errCur != nil || errOld != nil {
				t.Fatalf("%s sweep %d: in place %v, staging %v", name, sweep, errCur, errOld)
			}
			ref = jacobi(ref, c.nx)
			if err := s.Cur().Read(got, 0); err != nil {
				t.Fatal(err)
			}
			if !sameBits(got, ref) {
				t.Fatalf("%s sweep %d: the grid is not the plain Jacobi iteration's", name, sweep)
			}
			if old.space.Faults() != cur.space.Faults() || old.space.WrittenBytes() != cur.space.WrittenBytes() ||
				!slices.Equal(old.faults, cur.faults) || old.space.Digest(nil) != cur.space.Digest(nil) {
				t.Fatalf("%s sweep %d: staging left %d faults %d bytes digest %x faulted pages %#x\n in place %d faults %d bytes digest %x faulted pages %#x",
					name, sweep, old.space.Faults(), old.space.WrittenBytes(), old.space.Digest(nil), old.faults,
					cur.space.Faults(), cur.space.WrittenBytes(), cur.space.Digest(nil), cur.faults)
			}
		}
		if len(cur.faults) == 0 {
			t.Fatalf("%s: no sweep faulted", name)
		}
		if n := testing.AllocsPerRun(5, func() {
			if err := s.Step(); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: warm Step: %v allocs, want 0", name, n)
		}
	}
}

// TestLentChunksAreElementAligned: view reads a lent chunk as float64s,
// which must start 8-byte aligned. Every chunk a backed PageRun lends at
// an element-aligned address does — at a page's start and mid-page, for
// pages materialised by a store run, a byte-wise Write, a bulk
// WriteRange and a restore's LoadPage, through store and load runs alike.
// (The race detector's checkptr does not check this: it checks
// alignment only for pointer-bearing element types.)
func TestLentChunksAreElementAligned(t *testing.T) {
	for _, ps := range []uint64{8, 256, 4096, 16384} {
		sp := mem.NewAddressSpace(mem.Config{PageSize: ps})
		r, err := sp.Mmap(8 * ps)
		if err != nil {
			t.Fatal(err)
		}
		if err := sp.Write(r.PageAddr(0), make([]byte, ps)); err != nil {
			t.Fatal(err)
		}
		if err := sp.WriteRange(r.PageAddr(1), 2*ps); err != nil {
			t.Fatal(err)
		}
		r.LoadPage(3, make([]byte, ps))
		run, err := sp.StoreRun(r.PageAddr(4), 3*ps)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := run.Next(); n > 0; _, n = run.Next() {
		}
		for _, off := range []uint64{0, 8, ps / 2 &^ 7, ps - 8} {
			for _, store := range []bool{false, true} {
				addr, n := r.Start()+off, 7*ps-off
				run, err := sp.LoadRun(addr, n)
				if store {
					run, err = sp.StoreRun(addr, n)
				}
				if err != nil {
					t.Fatal(err)
				}
				for b, n := run.Next(); n > 0; b, n = run.Next() {
					if b == nil {
						t.Fatalf("page size %d: a written page lent nil", ps)
					}
					if p := uintptr(unsafe.Pointer(unsafe.SliceData(b))); p%8 != 0 {
						t.Errorf("page size %d, offset %d, store %v: chunk at %#x is not 8-byte aligned", ps, off, store, p)
					}
				}
			}
		}
	}
}
