package ckpt

import (
	"fmt"
	"math"
	"testing"
)

// ParseSegmentKey against hostile key shapes.

func TestParseSegmentKeyEdgeCases(t *testing.T) {
	var rank int
	var seq uint64

	// Numbers wider than the padding print unpadded and parse back.
	if !ParseSegmentKey("rank1234/seg12345678", &rank, &seq) || rank != 1234 || seq != 12345678 {
		t.Fatalf("wide key: rank=%d seq=%d", rank, seq)
	}
	// Maximum representable sequence survives the round trip.
	if !ParseSegmentKey("rank000/seg18446744073709551615", &rank, &seq) || seq != ^uint64(0) {
		t.Fatalf("max seq: %d", seq)
	}
	malformed := []string{
		"rank003/seg00001/extra", // too many separators
		"rank/seg000001",         // empty rank digits
		"rank003/seg",            // empty seq digits
		"rank-03/seg000001",      // what SegmentKey(-3, 1) prints: a sign is never a rank
		"rank003seg000001",       // missing separator
		"RANK003/seg000001",      // case matters
		"rank003/SEG000001",
		"rank0x3/seg000001",                // hex not allowed
		"rank003/seg1.5",                   // non-integer
		"rank003/seg18446744073709551616",  // overflows uint64
		"rank003/seg-1",                    // negative sequence
		"prefix/rank003/seg000001",         // nested under another dir
		"rank003/seg000001 ",               // trailing space in digits
		"\x00rank003/seg000001",            // leading junk
		"rank999999999999999999/seg000001", // overflows int on 64-bit? no — but must parse or reject cleanly
	}
	for _, key := range malformed {
		rank, seq = -1, 0
		got := ParseSegmentKey(key, &rank, &seq)
		switch key {
		case "rank999999999999999999/seg000001":
			// Parses on 64-bit ints; the caller's rank-range check drops it.
			if got && rank < 1 {
				t.Errorf("key %q: implausible rank %d", key, rank)
			}
		default:
			if got {
				t.Errorf("malformed key %q accepted (rank=%d seq=%d)", key, rank, seq)
			}
		}
	}
}

// TestParseSegmentKeyCanonicalOnly: the parser accepts exactly what
// SegmentKey prints. Every other spelling strconv would read as the same
// numbers — a sign, missing or extra padding — is not a segment key, so
// no layer can see a negative rank or two keys for one segment.
func TestParseSegmentKeyCanonicalOnly(t *testing.T) {
	for _, tc := range []struct {
		rank int
		seq  uint64
	}{{0, 0}, {7, 12}, {999, 999999}, {1000, 1000000}, {123456, ^uint64(0)}} {
		key := SegmentKey(tc.rank, tc.seq)
		var rank int
		var seq uint64
		if !ParseSegmentKey(key, &rank, &seq) || rank != tc.rank || seq != tc.seq {
			t.Errorf("canonical key %q: ok rank=%d seq=%d", key, rank, seq)
		}
	}
	for _, key := range []string{
		"rank-1/seg0", "rank-01/seg000000", SegmentKey(-1, 0), // signed ranks
		"rank+3/seg+07", "rank+03/seg000007", "rank003/seg+00007",
		"rank1/seg2", "rank7/seg12", "rank003/seg12", "rank3/seg000012", // under-padded
		"rank0003/seg000012", "rank003/seg0000012", "rank01000/seg000001", // over-padded
	} {
		rank, seq := 42, uint64(42)
		if ParseSegmentKey(key, &rank, &seq) {
			t.Errorf("non-canonical key %q accepted (rank=%d seq=%d)", key, rank, seq)
		}
		if rank != 42 || seq != 42 {
			t.Errorf("rejected key %q wrote its out-parameters (rank=%d seq=%d)", key, rank, seq)
		}
	}
	if n := testing.AllocsPerRun(100, func() { ParseSegmentKey("rank003/seg000042", nil, nil) }); n != 0 {
		t.Errorf("ParseSegmentKey allocates %v times per call", n)
	}
}

// TestKeysMatchSprintf pins SegmentKey and CommitKey to the fmt.Sprintf
// forms they are written without: under the pad width, at it, wider than
// it (rank >= 1000, seq >= 10^6), signed, and at the extremes. Each key
// costs one allocation, its string.
func TestKeysMatchSprintf(t *testing.T) {
	for _, rank := range []int{0, 7, 99, 999, 1000, 123456, math.MaxInt, -1, -3, -99, -100, math.MinInt} {
		for _, seq := range []uint64{0, 1, 42, 99999, 999999, 1000000, 1234567, math.MaxUint64} {
			if got, want := SegmentKey(rank, seq), fmt.Sprintf("rank%03d/seg%06d", rank, seq); got != want {
				t.Errorf("SegmentKey(%d, %d) = %q, want %q", rank, seq, got, want)
			}
			if got, want := CommitKey(seq), fmt.Sprintf("commit/seq%06d", seq); got != want {
				t.Errorf("CommitKey(%d) = %q, want %q", seq, got, want)
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { sinkKey = SegmentKey(1234, 1234567) }); n != 1 {
		t.Errorf("SegmentKey: %v allocs, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { sinkKey = CommitKey(1234567) }); n != 1 {
		t.Errorf("CommitKey: %v allocs, want 1", n)
	}
}

var sinkKey string
