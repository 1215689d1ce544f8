package mem

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

// TestRewriteRangeMatchesLoop: RewriteRange(addr, n, k) is k back-to-back
// WriteRange(addr, n) calls that stop at the first error. The same random
// script — protect spans or the whole region, stop and resume the log
// recording the region, rewrites with k of 0, 1 and up to 300 — run
// through the loop on one space and RewriteRange on another leaves every
// observable alike: the error text, the recorded fault sequence, the
// log's Count, Faults, WrittenBytes, the protection bits and the contents
// (Digest), on backed and phantom spaces.
func TestRewriteRangeMatchesLoop(t *testing.T) {
	for _, ps := range []uint64{256, 4096} {
		for _, phantom := range []bool{false, true} {
			for seed := uint64(0); seed < 12; seed++ {
				rng := rand.New(rand.NewPCG(seed, ps^0x5e))
				loop, once := newRunRig(ps, phantom, 40), newRunRig(ps, phantom, 40)
				pages := loop.r.Pages()
				segvs := 0
				for step := 0; step < 120; step++ {
					first := rng.Uint64N(pages)
					last := min(first+rng.Uint64N(12), pages-1)
					off := rng.Uint64N(ps)
					n := (last-first)*ps + 1 + rng.Uint64N(ps-off)
					where := fmt.Sprintf("page size %d phantom %v seed %d step %d", ps, phantom, seed, step)
					var errLoop, errOnce error
					switch op := rng.IntN(10); {
					case op < 2:
						for idx := first; idx <= last; idx++ {
							loop.r.SetProtected(loop.r.PageAddr(idx), true)
							once.r.SetProtected(once.r.PageAddr(idx), true)
						}
					case op == 2:
						loop.r.ProtectAll()
						once.r.ProtectAll()
					case op == 3:
						stuck := rng.IntN(2) == 0
						loop.stick(stuck)
						once.stick(stuck)
					default:
						k := []uint64{0, 1, 2, 1 + rng.Uint64N(300)}[rng.IntN(4)]
						addr := loop.r.Start() + first*ps + off
						for i := uint64(0); i < k && errLoop == nil; i++ {
							errLoop = loop.s.WriteRange(addr, n)
						}
						errOnce = once.s.RewriteRange(addr, n, k)
						where += fmt.Sprintf(" k %d", k)
					}
					if errors.Is(errOnce, ErrSegv) {
						segvs++
					}
					if fmt.Sprint(errLoop) != fmt.Sprint(errOnce) {
						t.Fatalf("%s: loop %v, RewriteRange %v", where, errLoop, errOnce)
					}
					if !slices.Equal(loop.faults, once.faults) || !slices.Equal(loop.r.wp, once.r.wp) ||
						loop.log.Count() != once.log.Count() || loop.s.Faults() != once.s.Faults() ||
						loop.s.WrittenBytes() != once.s.WrittenBytes() || loop.s.Digest(nil) != once.s.Digest(nil) {
						t.Fatalf("%s:\nloop          %s\nRewriteRange  %s", where, loop.state(), once.state())
					}
				}
				if segvs == 0 {
					t.Fatalf("page size %d phantom %v seed %d: no rewrite hit ErrSegv", ps, phantom, seed)
				}
			}
		}
	}
}

// RewriteRange on a protected region of a space with no dirty log fails
// like WriteRange: ErrSegv at the first protected page, one fault counted,
// nothing written; with k = 0 it does not even look.
func TestRewriteRangeWithoutLog(t *testing.T) {
	for _, phantom := range []bool{false, true} {
		s := NewAddressSpace(Config{PageSize: 4096, Phantom: phantom})
		r, _ := s.Mmap(8 * 4096)
		r.SetProtected(r.PageAddr(3), true)
		if err := s.RewriteRange(r.Start()+100, 8*4096-100, 0); err != nil || s.Faults() != 0 {
			t.Fatalf("phantom %v: k = 0 returned %v with %d faults", phantom, err, s.Faults())
		}
		err := s.RewriteRange(r.Start()+100, 8*4096-100, 5)
		want := fmt.Sprintf("mem: segmentation violation: write to %#x", r.PageAddr(3))
		if !errors.Is(err, ErrSegv) || err.Error() != want || s.Faults() != 1 || s.WrittenBytes() != 0 {
			t.Fatalf("phantom %v: %v, %d faults, %d bytes; want %q, 1 fault, 0 bytes", phantom, err, s.Faults(), s.WrittenBytes(), want)
		}
	}
}

// Rewriting a phantom range costs the same however many times it is
// rewritten.
func TestZeroAllocPhantomRewriteRange(t *testing.T) {
	s := NewAddressSpace(Config{Phantom: true})
	r, _ := s.Mmap(64 << 20)
	allocs := testing.AllocsPerRun(100, func() {
		if err := s.RewriteRange(r.Start(), r.Size(), 1<<20); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 || s.WrittenBytes() != 101*(1<<20)*r.Size() {
		t.Fatalf("%v allocs/op, %d bytes written", allocs, s.WrittenBytes())
	}
}
