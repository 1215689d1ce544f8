package ckpt

import "testing"

// ParseSegmentKey against hostile key shapes.

func TestParseSegmentKeyEdgeCases(t *testing.T) {
	var rank int
	var seq uint64

	// Width is a formatting convention, not a requirement.
	if !ParseSegmentKey("rank7/seg12", &rank, &seq) || rank != 7 || seq != 12 {
		t.Fatalf("unpadded key: rank=%d seq=%d", rank, seq)
	}
	// Maximum representable sequence survives the round trip.
	if !ParseSegmentKey("rank000/seg18446744073709551615", &rank, &seq) || seq != ^uint64(0) {
		t.Fatalf("max seq: %d", seq)
	}
	malformed := []string{
		"rank003/seg00001/extra", // too many separators
		"rank/seg000001",         // empty rank digits
		"rank003/seg",            // empty seq digits
		"rank-03/seg000001",      // negative-looking rank... rejected by Atoi? no: "-03" parses
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
		case "rank-03/seg000001":
			// strconv.Atoi accepts a sign; the scan layer tolerates it
			// and range checks (rank < 0) reject it downstream.
			if got && rank >= 0 {
				t.Errorf("key %q: rank %d parsed non-negative", key, rank)
			}
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
