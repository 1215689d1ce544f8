package redundancy

import (
	"bytes"
	"math/rand/v2"
	"runtime"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/mpi"
	"repro/internal/storage"
)

// Parity data path: EncodeLine and rebuild borrow the member segments
// where they are stored and never pad, copy or write them; the frames on
// the partners (encode) and the holes (rebuild) are the only buffers a
// line's worth of bytes is allocated for.

const (
	sentinel = 0xC3
	// slack is the sentinel run behind every lent segment; segment sizes
	// in one group differ by less, so a pad to the group's shard length
	// would fit in place.
	slack = 256
)

// lentSegment is one member segment stored by giving the L1 store the
// front of a larger buffer: buf[len(seg):] holds sentinels, which an
// in-place pad (append into the lent slice) would overwrite.
type lentSegment struct {
	buf  []byte // the whole buffer, sentinels included
	seg  []byte // what was stored: buf[:n]
	orig []byte // private copy of seg's bytes
}

func (l *lentSegment) intact(t *testing.T, what string, rank int) {
	t.Helper()
	if !bytes.Equal(l.seg, l.orig) {
		t.Fatalf("%s wrote rank %d's stored segment", what, rank)
	}
	if !bytes.Equal(l.buf[len(l.seg):], bytes.Repeat([]byte{sentinel}, len(l.buf)-len(l.seg))) {
		t.Fatalf("%s wrote past the end of rank %d's stored segment (padded a lent buffer in place)", what, rank)
	}
}

// lendLine stores line seq on every rank's L1 as a lent, ragged random
// segment of sizeOf(rank) bytes.
func lendLine(t *testing.T, h *Hierarchy, seq uint64, rng *rand.Rand, sizeOf func(rank int) int) []*lentSegment {
	t.Helper()
	out := make([]*lentSegment, h.Ranks())
	for r := range out {
		n := sizeOf(r)
		buf := bytes.Repeat([]byte{sentinel}, n+slack)
		copy(buf, randBytes(rng, n))
		l := &lentSegment{buf: buf, seg: buf[:n], orig: bytes.Clone(buf[:n])}
		if err := storage.PutOwned(h.Local(r), ckpt.SegmentKey(r, seq), l.seg); err != nil {
			t.Fatal(err)
		}
		out[r] = l
	}
	return out
}

func memHierarchy(t *testing.T, scheme Scheme, ranks, globalEvery int) *Hierarchy {
	t.Helper()
	h, err := NewHierarchy(Config{Scheme: scheme, Domains: domains(t, ranks, 2), Global: storage.NewMemStore(), GlobalEvery: globalEvery, Net: mpi.QsNet()})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestEncodeLineFramesMatchEncodeOverPaddedCopies: the frames EncodeLine
// leaves on the partners are byte for byte what the public, copying API
// produces — Codec.Encode over explicitly padded copies, wrapped by
// EncodeParityFrame — so the stored format did not move.
func TestEncodeLineFramesMatchEncodeOverPaddedCopies(t *testing.T) {
	for _, scheme := range []Scheme{{Kind: RS, K: 4, M: 2}, {Kind: RS, K: 2, M: 2}, {Kind: XOR, K: 4, M: 1}} {
		h := memHierarchy(t, scheme, 12, 1000)
		rng := rand.New(rand.NewPCG(9, uint64(scheme.K)))
		segs := lendLine(t, h, 3, rng, func(rank int) int { return 200 + 17*rank })
		rep, err := h.EncodeLine(3)
		if err != nil {
			t.Fatal(err)
		}
		codec, err := NewCodec(scheme)
		if err != nil {
			t.Fatal(err)
		}
		var parityBytes uint64
		for _, g := range h.Groups() {
			shardLen := 0
			for _, r := range g.Members {
				shardLen = max(shardLen, len(segs[r].seg))
			}
			padded := make([][]byte, scheme.K)
			members := make([]MemberRef, scheme.K)
			for i, r := range g.Members {
				padded[i] = padTo(segs[r].seg, shardLen)
				members[i] = MemberRef{Rank: r, Length: uint32(len(segs[r].seg)), CRC: SegmentCRC(segs[r].seg)}
			}
			parity, err := codec.Encode(padded)
			if err != nil {
				t.Fatal(err)
			}
			for j, p := range parity {
				want, err := EncodeParityFrame(&ParityFrame{
					Group: uint32(g.ID), Seq: 3, Shard: scheme.K + j, K: scheme.K, M: scheme.M, Members: members, Payload: p,
				})
				if err != nil {
					t.Fatal(err)
				}
				got, err := h.Local(g.Partners[j]).Get(ParityKey(g.ID, 3, scheme.K+j))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%v group %d shard %d: stored frame differs from EncodeParityFrame(Encode(padded))", scheme, g.ID, scheme.K+j)
				}
				parityBytes += uint64(len(want))
			}
		}
		if rep.ParityBytes != parityBytes {
			t.Fatalf("%v: report counts %d parity bytes, frames hold %d", scheme, rep.ParityBytes, parityBytes)
		}
	}
}

// TestBorrowedBuffersAreNeverWritten: member segments are lent to the L1
// stores as the front of larger, sentinel-filled buffers. Encoding a
// line, rebuilding a lost member from the survivors and reading the
// survivors back must leave every lent byte, length and sentinel intact.
func TestBorrowedBuffersAreNeverWritten(t *testing.T) {
	for _, scheme := range []Scheme{{Kind: RS, K: 4, M: 2}, {Kind: XOR, K: 4, M: 1}} {
		h := memHierarchy(t, scheme, 12, 1000)
		rng := rand.New(rand.NewPCG(31, uint64(scheme.M)))
		segs := lendLine(t, h, 0, rng, func(rank int) int { return 300 + 41*(rank%5) })
		if _, err := h.EncodeLine(0); err != nil {
			t.Fatal(err)
		}
		for r, l := range segs {
			l.intact(t, "EncodeLine", r)
		}

		g := h.Groups()[0]
		victim := g.Members[1]
		if err := h.Local(victim).Delete(ckpt.SegmentKey(victim, 0)); err != nil {
			t.Fatal(err)
		}
		v := h.NewView()
		got, err := v.Get(ckpt.SegmentKey(victim, 0))
		if err != nil {
			t.Fatal(err)
		}
		if st := v.Stats(); st.Rebuilds != 1 || st.RepairedBack != 1 {
			t.Fatalf("%v: rebuild stats %+v", scheme, st)
		}
		if !bytes.Equal(got, segs[victim].orig) {
			t.Fatalf("%v: rebuilt segment differs from what was stored", scheme)
		}
		// The rebuild also cached the survivors; reading them lends the
		// stored value or the cache, still unwritten.
		for _, r := range g.Members {
			data, err := v.Get(ckpt.SegmentKey(r, 0))
			if err != nil || !bytes.Equal(data, segs[r].orig) {
				t.Fatalf("%v: member %d reads back wrong after the rebuild: %v", scheme, r, err)
			}
		}
		for r, l := range segs {
			l.intact(t, "rebuild", r)
		}
	}
}

// TestEncodeLineAllocatesOnlyFrames: a line costs the m frames per group
// that come to rest on the partners, plus bookkeeping whose count does
// not depend on how large the segments are.
func TestEncodeLineAllocatesOnlyFrames(t *testing.T) {
	scheme := Scheme{Kind: RS, K: 4, M: 2}
	allocs := make(map[int]float64)
	for _, size := range []int{1 << 10, 256 << 10} {
		h := memHierarchy(t, scheme, 12, 1000)
		lendLine(t, h, 0, rand.New(rand.NewPCG(5, 5)), func(rank int) int { return size - rank })
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rep, err := h.EncodeLine(0)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		// Slack covers keys, error-free bookkeeping and size-class rounding.
		if got, budget := after.TotalAlloc-before.TotalAlloc, rep.ParityBytes+rep.ParityBytes/8+8<<10; got > budget {
			t.Fatalf("%d-byte segments: EncodeLine allocated %d bytes to store %d bytes of frames: it copies or pads", size, got, rep.ParityBytes)
		}
		allocs[size] = testing.AllocsPerRun(10, func() {
			if _, err := h.EncodeLine(0); err != nil {
				t.Fatal(err)
			}
		})
	}
	// Per group: m frames, and a key string per member read and per
	// frame stored. fmt's sync.Pool sheds entries at random under the
	// race detector, so a key costs an extra allocation on some runs:
	// allow that noise, not a buffer per member or per frame.
	const groups = 3
	keys := float64(groups * (scheme.K + scheme.M))
	if small, large := allocs[1<<10], allocs[256<<10]; large > small+keys/2 {
		t.Fatalf("EncodeLine allocation count grows with segment size: %v", allocs)
	}
	if limit := float64(groups*scheme.M) + 3*keys; allocs[256<<10] > limit {
		t.Fatalf("EncodeLine makes %v allocations per line, want at most %v", allocs[256<<10], limit)
	}
}

// TestRankStorePutOwnedForwardsOwnership: a line that stays on L1 is
// stored without a copy — the stored value is the caller's buffer — and
// a write-through line is given to both tiers, which share that one
// frozen buffer instead of copying it each.
func TestRankStorePutOwnedForwardsOwnership(t *testing.T) {
	h := memHierarchy(t, Scheme{Kind: RS, K: 4, M: 2}, 12, 8)
	rs := h.RankStore(2)
	const size = 1 << 20
	put := func(seq uint64) (buf []byte, allocated uint64) {
		buf = bytes.Repeat([]byte{byte(seq + 1)}, size)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := storage.PutOwned(rs, ckpt.SegmentKey(2, seq), buf)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return buf, after.TotalAlloc - before.TotalAlloc
	}

	buf, allocated := put(3) // 3 % 8 != 0: L1 only
	if allocated > size/64 {
		t.Fatalf("owned put of a non-write-through line allocated %d bytes: it copies", allocated)
	}
	stored, err := h.Local(2).Get(ckpt.SegmentKey(2, 3))
	if err != nil || len(stored) != size || &stored[0] != &buf[0] {
		t.Fatalf("L1 does not hold the buffer it was given (err %v)", err)
	}
	if _, err := h.Global().Get(ckpt.SegmentKey(2, 3)); err == nil {
		t.Fatal("off-cadence line reached L3")
	}

	want := bytes.Repeat([]byte{8 + 1}, size)
	buf, allocated = put(8) // write-through: both tiers keep the one buffer
	if allocated > size/64 {
		t.Fatalf("owned put of a write-through line allocated %d bytes: a tier copies", allocated)
	}
	for name, tier := range map[string]storage.Store{"L1": h.Local(2), "L3": h.Global()} {
		stored, err := tier.Get(ckpt.SegmentKey(2, 8))
		if err != nil || !bytes.Equal(stored, want) {
			t.Fatalf("%s misses the write-through line: %v", name, err)
		}
		if &stored[0] != &buf[0] {
			t.Fatalf("%s copied a frozen buffer it could share", name)
		}
	}
}
