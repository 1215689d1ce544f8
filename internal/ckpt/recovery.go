package ckpt

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/mem"
	"repro/internal/storage"
)

// Cluster-level recovery helpers: after a failure, every rank must roll
// back to the same coordinated checkpoint, or messages exchanged between
// ranks would straddle the recovery line. Coordinated checkpoints give
// each global checkpoint the same per-rank sequence number, so the
// recovery line is simply the largest sequence present in the store for
// *all* ranks.

// LatestConsistentSeq scans the store and returns the largest segment
// sequence number persisted by every one of the given ranks — the most
// recent consistent recovery line. ok is false when some rank has no
// segment at all.
func LatestConsistentSeq(store storage.Store, ranks int) (seq uint64, ok bool, err error) {
	keys, err := store.Keys()
	if err != nil {
		return 0, false, err
	}
	// maxSeq[r] is the largest contiguous-or-not sequence seen per rank;
	// consistency needs the *minimum across ranks* of those maxima, and
	// the chosen seq must exist for every rank — with coordinated
	// checkpointing sequences are dense, so min-of-max suffices.
	maxSeq := make(map[int]uint64, ranks)
	seen := make(map[int]bool, ranks)
	for _, k := range keys {
		var rank int
		var s uint64
		if !ParseSegmentKey(k, &rank, &s) {
			continue
		}
		if rank < 0 || rank >= ranks {
			continue
		}
		if !seen[rank] || s > maxSeq[rank] {
			maxSeq[rank] = s
		}
		seen[rank] = true
	}
	if len(seen) < ranks {
		return 0, false, nil
	}
	first := true
	for r := 0; r < ranks; r++ {
		if first || maxSeq[r] < seq {
			seq = maxSeq[r]
			first = false
		}
	}
	return seq, true, nil
}

// SegmentKey returns the store key of one rank's segment — the layout
// Checkpointer.Checkpoint writes and ParseSegmentKey parses.
func SegmentKey(rank int, seq uint64) string {
	var buf [64]byte
	b := append(buf[:0], "rank"...)
	if rank < 0 { // fmt's %03d: the sign counts toward the width
		b = appendPadded(append(b, '-'), uint64(-rank), 2)
	} else {
		b = appendPadded(b, uint64(rank), 3)
	}
	return string(appendPadded(append(b, "/seg"...), seq, 6))
}

// ParseSegmentKey inverts SegmentKey: it accepts exactly the keys
// SegmentKey prints — decimal digits only, zero-padded to the printed
// width and no further, no sign — so a key is a segment key to every
// layer or to none, and a parsed rank is never negative. Either
// out-pointer may be nil when the caller only needs the other field (or
// just the match).
func ParseSegmentKey(key string, rank *int, seq *uint64) bool {
	rest, ok := strings.CutPrefix(key, "rank")
	if !ok {
		return false
	}
	r, rest, ok := cutPadded(rest, 3)
	if !ok || r > math.MaxInt {
		return false
	}
	if rest, ok = strings.CutPrefix(rest, "/seg"); !ok {
		return false
	}
	s, rest, ok := cutPadded(rest, 6)
	if !ok || rest != "" {
		return false
	}
	if rank != nil {
		*rank = int(r)
	}
	if seq != nil {
		*seq = s
	}
	return true
}

// cutPadded consumes from the front of s the number fmt's %0<width>d
// verb prints for a non-negative value: at least width digits, with
// leading zeros only as padding up to width.
func cutPadded(s string, width int) (n uint64, rest string, ok bool) {
	i := 0
	for i < len(s) && '0' <= s[i] && s[i] <= '9' {
		i++
	}
	if i < width || (i > width && s[0] == '0') {
		return 0, "", false
	}
	n, err := strconv.ParseUint(s[:i], 10, 64)
	return n, s[i:], err == nil
}

// appendPadded appends v in decimal, zero-padded to width digits: what
// fmt's %0<width>d prints for a non-negative value, and cutPadded reads.
func appendPadded(b []byte, v uint64, width int) []byte {
	n := 1
	for x := v; x >= 10; x /= 10 {
		n++
	}
	for ; n < width; n++ {
		b = append(b, '0')
	}
	return strconv.AppendUint(b, v, 10)
}

// ChainVolume returns the total encoded bytes that a restore of the
// given rank to targetSeq must read: the chain's base full segment plus
// every delta up to the target. It is walkChain summing the size of each
// segment the walk fetched, so it prices only a chain VerifyChain proves
// and fails with VerifyChain's error otherwise. Together with a sink's
// read bandwidth this gives the restart-cost term of the efficiency model.
func ChainVolume(store storage.Store, rank int, targetSeq uint64) (uint64, error) {
	var total uint64
	err := walkChain(store, rank, targetSeq, func(_, _ *Segment, size uint64) error {
		total += size
		return nil
	})
	if err != nil {
		return 0, err
	}
	// The target is fetched again, last, and its bytes are not used:
	// FaultyStore draws one fault per operation, so this Get keeps the
	// operation sequence recovery runs are pinned to. Reading each chain
	// once for verify, price and restore removes it, as a deliberate
	// change of those runs.
	if _, err := store.Get(SegmentKey(rank, targetSeq)); err != nil {
		return 0, fmt.Errorf("ckpt: chain segment %d: %w", targetSeq, err)
	}
	return total, nil
}

// RestoreError identifies exactly where a multi-rank restore failed:
// which rank's chain, at which coordinated sequence, and why. Callers
// unwrap the cause with the standard taxonomy — errors.Is(err,
// storage.ErrNotFound) distinguishes a rank whose segment is simply
// missing from errors.Is(err, storage.ErrCorrupt), a segment whose
// bytes failed integrity or decode, or that decodes but does not chain
// (walkChain) — and so can report (or route around) a torn line
// precisely instead of guessing from message text.
type RestoreError struct {
	// Rank is the rank whose restore chain failed.
	Rank int
	// Seq is the coordinated recovery line being restored.
	Seq uint64
	// Err is the underlying cause, wrapped for errors.Is/As.
	Err error
}

// Error implements error.
func (e *RestoreError) Error() string {
	return fmt.Sprintf("ckpt: restore rank %d to line %d: %v", e.Rank, e.Seq, e.Err)
}

// Unwrap exposes the cause to errors.Is and errors.As.
func (e *RestoreError) Unwrap() error { return e.Err }

// RestoreAll restores every rank to the given coordinated sequence
// number, returning one fresh address space per rank. Page size is taken
// from rank 0's target segment. Any per-rank failure is returned as a
// *RestoreError naming the rank and sequence that failed, with the
// cause wrapped.
func RestoreAll(store storage.Store, ranks int, seq uint64) ([]*mem.AddressSpace, error) {
	if ranks <= 0 {
		return nil, fmt.Errorf("ckpt: RestoreAll with %d ranks", ranks)
	}
	base, err := LoadSegment(store, 0, seq)
	if err != nil {
		return nil, &RestoreError{Rank: 0, Seq: seq, Err: err}
	}
	spaces := make([]*mem.AddressSpace, ranks)
	for r := 0; r < ranks; r++ {
		sp := mem.NewAddressSpace(mem.Config{PageSize: base.PageSize})
		if err := Restore(store, r, seq, sp); err != nil {
			return nil, &RestoreError{Rank: r, Seq: seq, Err: err}
		}
		spaces[r] = sp
	}
	return spaces, nil
}
