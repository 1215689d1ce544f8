package mem

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand/v2"
	"slices"
	"testing"
)

// oracleWriteRange, oracleWriteDirect and oracleWriteRangeDirect are
// the three protection-bitmap walks as they were before they became one
// (Region.protected): WriteRange's own word skip, delivering each fault
// alone (the one-bit case of faultWord) and re-reading the bitmap after
// it, and the DMA paths' page-by-page bit tests. They are the reference
// the shared walk is compared against.
func oracleWriteRange(s *AddressSpace, addr, n uint64) error {
	if n == 0 {
		return nil
	}
	r, err := s.checkRange(addr, n)
	if err != nil {
		return err
	}
	last := r.PageIndex(addr + n - 1)
	for idx := r.PageIndex(addr); idx <= last; {
		w := r.wp[idx/64] >> (idx % 64)
		if w == 0 {
			idx = (idx/64 + 1) * 64
			continue
		}
		if skip := uint64(bits.TrailingZeros64(w)); skip > 0 {
			idx += skip
			continue
		}
		if !s.faultWord(r, idx/64, 1<<(idx%64)) {
			return fmt.Errorf("%w: write to %#x", ErrSegv, max(r.PageAddr(idx), addr))
		}
		idx++
	}
	s.fill(r, addr, n)
	return nil
}

// oracleMarkSilent is the old single-page silent mark.
func oracleMarkSilent(r *Region, idx uint64) {
	if r.silent == nil {
		r.silent = make([]uint64, len(r.wp))
	}
	r.silent[idx/64] |= 1 << (idx % 64)
}

func oracleWriteDirect(s *AddressSpace, addr uint64, data []byte) (silentBytes uint64, err error) {
	n := uint64(len(data))
	if n == 0 {
		return 0, nil
	}
	r, err := s.checkRange(addr, n)
	if err != nil {
		return 0, err
	}
	ps := s.cfg.PageSize
	for off := uint64(0); off < n; {
		pageEnd := (addr + off + ps) &^ (ps - 1)
		chunk := min(n-off, pageEnd-(addr+off))
		if r.Protected(addr + off) {
			oracleMarkSilent(r, r.PageIndex(addr+off))
			silentBytes += chunk
		}
		off += chunk
	}
	if !s.cfg.Phantom {
		copy(r.store(addr, n), data)
	}
	s.writeBytes += n
	return silentBytes, nil
}

func oracleWriteRangeDirect(s *AddressSpace, addr, n uint64) (silentBytes uint64, err error) {
	if n == 0 {
		return 0, nil
	}
	r, err := s.checkRange(addr, n)
	if err != nil {
		return 0, err
	}
	ps := s.cfg.PageSize
	last := r.PageIndex(addr + n - 1)
	for idx := r.PageIndex(addr); idx <= last; idx++ {
		if r.wp[idx/64]>>(idx%64)&1 == 0 {
			continue
		}
		oracleMarkSilent(r, idx)
		pa := r.PageAddr(idx)
		silentBytes += min(pa+ps, addr+n) - max(pa, addr)
	}
	s.fill(r, addr, n)
	return silentBytes, nil
}

// TestProtectionWalkMatchesOracle: the same random script — protect and
// unprotect spans, ProtectAll, CPU sweeps some of which die on a
// protected page while the rig is stuck, NIC writes, ClearSilent — run
// through the old walks on one space and the shared one on another
// leaves every observable alike: errors, silent bytes returned, the
// silent and protection bitmaps, Faults, WrittenBytes, contents (every
// 25 steps: hashing is the cost) and the recorded fault sequence. The
// region starts never protected, so the first steps take the skip.
// After every step both regions' summaries are exact.
func TestProtectionWalkMatchesOracle(t *testing.T) {
	for _, ps := range []uint64{256, 4096} {
		for _, phantom := range []bool{false, true} {
			for seed := uint64(0); seed < 12; seed++ {
				walkScript(t, ps, phantom, seed, 150, 150, 140, false)
			}
		}
	}
}

// TestProtectionWalkHopsTheSummary is the oracle script on a region of
// 100 bitmap words — two summary words, the last partial — with spans
// up to 50 words long, so protection spans, sweeps and NIC writes cross
// the summary-word boundary and the walk hops summary words. The
// script adds ReplaySilent and a DirtyLog Close (then Open), and after
// every step, whatever it was, both regions' summaries are exact.
func TestProtectionWalkHopsTheSummary(t *testing.T) {
	for _, phantom := range []bool{false, true} {
		for seed := uint64(0); seed < 3; seed++ {
			walkScript(t, 256, phantom, seed, 100*64, 120, 50*64, true)
		}
	}
}

// walkScript runs one seeded script of steps ops on two rigs of pages
// pages each, the oracle walks on one and the shared walk on the other,
// with spans of up to maxSpan pages; wide adds ReplaySilent and
// DirtyLog Close/Open to the ops.
func walkScript(t *testing.T, ps uint64, phantom bool, seed, pages uint64, steps int, maxSpan uint64, wide bool) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, ps))
	old, cur := newRunRig(ps, phantom, pages), newRunRig(ps, phantom, pages)
	stuck := false
	ops := 12
	if wide {
		ops = 14
	}
	for step := 0; step < steps; step++ {
		first := rng.Uint64N(pages)
		last := min(first+rng.Uint64N(maxSpan), pages-1)
		off := rng.Uint64N(ps)
		n := (last-first)*ps + 1 + rng.Uint64N(ps-off)
		rel := first*ps + off
		where := fmt.Sprintf("page size %d phantom %v seed %d step %d", ps, phantom, seed, step)
		var errOld, errCur error
		var silentOld, silentCur uint64
		switch op := rng.IntN(ops); {
		case op < 3 && step > 5:
			protect := op > 0
			for idx := first; idx <= last; idx++ {
				old.r.SetProtected(old.r.PageAddr(idx), protect)
				cur.r.SetProtected(cur.r.PageAddr(idx), protect)
			}
		case op == 3 && step > 5:
			old.r.ProtectAll()
			cur.r.ProtectAll()
		case op == 4:
			stuck = !stuck
			old.stick(stuck)
			cur.stick(stuck)
		case op < 8:
			errOld = oracleWriteRange(old.s, old.r.Start()+rel, n)
			errCur = cur.s.WriteRange(cur.r.Start()+rel, n)
		case op < 10:
			data := make([]byte, n)
			for i := range data {
				data[i] = byte(rng.Uint32())
			}
			silentOld, errOld = oracleWriteDirect(old.s, old.r.Start()+rel, data)
			silentCur, errCur = cur.s.WriteDirect(cur.r.Start()+rel, data)
		case op < 11:
			silentOld, errOld = oracleWriteRangeDirect(old.s, old.r.Start()+rel, n)
			silentCur, errCur = cur.s.WriteRangeDirect(cur.r.Start()+rel, n)
		case op < 12:
			old.r.ClearSilent()
			cur.r.ClearSilent()
		case op < 13:
			if o, c := old.s.ReplaySilent(), cur.s.ReplaySilent(); o != c {
				t.Fatalf("%s: ReplaySilent replayed %d pages on the oracle rig, %d on the shared walk's", where, o, c)
			}
		default:
			for _, g := range []*runRig{old, cur} {
				g.log.Close()
				if msg := summaryMismatch(g.r); msg != "" {
					t.Fatalf("%s: after Close: %s", where, msg)
				}
				g.log.Open()
			}
		}
		for _, g := range []*runRig{old, cur} {
			if msg := summaryMismatch(g.r); msg != "" {
				t.Fatalf("%s: %s", where, msg)
			}
		}
		if errors.Is(errOld, ErrSegv) != errors.Is(errCur, ErrSegv) || fmt.Sprint(errOld) != fmt.Sprint(errCur) {
			t.Fatalf("%s: oracle %v, shared walk %v", where, errOld, errCur)
		}
		if silentOld != silentCur {
			t.Fatalf("%s: oracle %d silent bytes, shared walk %d", where, silentOld, silentCur)
		}
		if !slices.Equal(old.faults, cur.faults) || !slices.Equal(old.r.wp, cur.r.wp) || !slices.Equal(old.r.silent, cur.r.silent) ||
			old.s.Faults() != cur.s.Faults() || old.s.WrittenBytes() != cur.s.WrittenBytes() ||
			step%25 == 24 && old.s.Digest(nil) != cur.s.Digest(nil) {
			t.Fatalf("%s:\noracle      %s silent %x\nshared walk %s silent %x", where, old.state(), old.r.silent, cur.state(), cur.r.silent)
		}
		old.faults, cur.faults = old.faults[:0], cur.faults[:0]
	}
}
