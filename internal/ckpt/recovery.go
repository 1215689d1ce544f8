package ckpt

import (
	"fmt"
	"math"
	"slices"
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

// LatestConsistentSeq returns the newest segment sequence number every
// one of the given ranks holds a segment key for — the most recent
// consistent recovery line, by the candidate rule RestoreLatest uses
// without two-phase commit. It trusts the key space and reads no
// segment. ok is false when no line is held by every rank.
func LatestConsistentSeq(store storage.Store, ranks int) (seq uint64, ok bool, err error) {
	return newestLine(store, ranks, false, func(uint64) error { return nil })
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
// segment the walk fetched, so it reads the chain once, in a restore's
// order, prices only a chain VerifyChain proves and fails with
// VerifyChain's error otherwise. Together with a sink's read bandwidth
// this gives the restart-cost term of the efficiency model; a recovery
// gets the same sum from the restore itself (RestoreLatest).
func ChainVolume(store storage.Store, rank int, targetSeq uint64) (uint64, error) {
	var total uint64
	err := walkChain(store, rank, targetSeq, func(_, _ *Segment, size uint64) error {
		total += size
		return nil
	})
	if err != nil {
		return 0, err
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
// number, returning one fresh address space per rank, made with the page
// size of that rank's target segment. Any per-rank failure is returned as
// a *RestoreError naming the rank and sequence that failed, with the
// cause wrapped.
func RestoreAll(store storage.Store, ranks int, seq uint64) ([]*mem.AddressSpace, error) {
	if ranks <= 0 {
		return nil, fmt.Errorf("ckpt: RestoreAll with %d ranks", ranks)
	}
	spaces, _, err := restoreLine(store, ranks, seq, nil)
	return spaces, err
}

// restoreLine is RestoreAll's body: each rank's chain to seq replayed
// once, in rank order, into a space with its target's page size that
// inherits the slabs of dead[rank] (replayChain), the space it replaces.
// It also returns the encoded bytes the walks read, Σ ChainVolume. dead
// is nil (every space fresh) or holds one space per rank, nil where a
// rank has none. A line that fails at some rank leaves, in dead, the
// spaces it made for the ranks up to that one in their donors' places:
// they hold the donors' slabs now, and the next restore inherits them.
func restoreLine(store storage.Store, ranks int, seq uint64, dead []*mem.AddressSpace) ([]*mem.AddressSpace, uint64, error) {
	spaces := make([]*mem.AddressSpace, ranks)
	var read uint64
	for r := range spaces {
		var donor *mem.AddressSpace
		if dead != nil {
			donor = dead[r]
		}
		sp, n, err := replayChain(store, r, seq, donor)
		spaces[r], read = sp, read+n
		if err != nil {
			if dead != nil {
				for i, sp := range spaces[:r+1] {
					if sp != nil {
						dead[i] = sp
					}
				}
			}
			return nil, 0, &RestoreError{Rank: r, Seq: seq, Err: err}
		}
	}
	return spaces, read, nil
}

// Recovered is the line a recovery restored.
type Recovered struct {
	// Seq is the coordinated line.
	Seq uint64
	// Spaces holds one restored address space per rank.
	Spaces []*mem.AddressSpace
	// Bytes is the encoded bytes of every rank's chain, read once: the
	// line's Σ ChainVolume.
	Bytes uint64
}

// RestoreLatest is recovery in one pass: it scans candidate lines newest
// first under the trust rule (newestLine; committed selects two-phase
// commit) and restores each candidate's every chain through walkChain
// exactly once, returning the first line every rank restores. A line
// that fails at some rank is abandoned there, so a store whose newest
// line is torn at rank r is read as rank 0…r-1's chains, rank r's failing
// prefix, then the older line's chains. ok is false when no candidate
// restores; the error is reserved for the key listing failing.
//
// dead is nil or holds, per rank, the space the recovery replaces (nil
// where a rank has none): each restored space inherits its rank's slabs
// (mem.AddressSpace.Inherit), so a recovery makes no slab a dead space
// already holds. An abandoned candidate's spaces take their donors'
// places in dead, so the next candidate inherits from them and, when no
// candidate restores, dead holds what a scratch build should inherit.
func RestoreLatest(store storage.Store, ranks int, committed bool, dead []*mem.AddressSpace) (rec Recovered, ok bool, err error) {
	rec.Seq, ok, err = newestLine(store, ranks, committed, func(seq uint64) (err error) {
		rec.Spaces, rec.Bytes, err = restoreLine(store, ranks, seq, dead)
		return err
	})
	return rec, ok, err // a failed candidate left rec zero
}

// newestLine is the one candidate scanner of both trust rules. It lists
// the store's keys once and offers each candidate line to try, newest
// first, returning the first line try accepts. Under the plain rule a
// line is a candidate when every rank holds a segment key for it. Under
// two-phase commit (committed) it is a candidate when it has a COMMIT
// marker key, and is offered to try only after checkMarker reads that
// marker back well formed. ok is false when no candidate is accepted;
// the error is the key listing's.
func newestLine(store storage.Store, ranks int, committed bool, try func(seq uint64) error) (seq uint64, ok bool, err error) {
	if ranks <= 0 {
		return 0, false, nil
	}
	keys, err := store.Keys()
	if err != nil {
		return 0, false, err
	}
	var candidates []uint64
	if committed {
		candidates = markedLines(keys)
	} else {
		held := make(map[uint64]int) // ranks holding each seq; keys are a set
		for _, k := range keys {
			var rank int
			var s uint64
			if ParseSegmentKey(k, &rank, &s) && rank >= 0 && rank < ranks {
				if held[s]++; held[s] == ranks {
					candidates = append(candidates, s)
				}
			}
		}
	}
	slices.Sort(candidates)
	for i := len(candidates) - 1; i >= 0; i-- {
		s := candidates[i]
		if committed && checkMarker(store, ranks, s) != nil {
			continue
		}
		if try(s) == nil {
			return s, true, nil
		}
	}
	return 0, false, nil
}

// markedLines returns the lines keys hold a COMMIT marker key for.
func markedLines(keys []string) []uint64 {
	var lines []uint64
	for _, k := range keys {
		var s uint64
		if ParseCommitKey(k, &s) {
			lines = append(lines, s)
		}
	}
	return lines
}

// LatestClaimedSeq returns the line the store advertises before any data
// is read, under the trust rule recovery uses: the newest line with a
// COMMIT marker key under two-phase commit (committed), otherwise
// LatestConsistentSeq. A recovery is degraded when the line it restores
// falls short of this claim.
func LatestClaimedSeq(store storage.Store, ranks int, committed bool) (seq uint64, ok bool, err error) {
	if !committed {
		return LatestConsistentSeq(store, ranks)
	}
	keys, err := store.Keys()
	if err != nil {
		return 0, false, err
	}
	lines := markedLines(keys)
	if len(lines) == 0 {
		return 0, false, nil
	}
	return slices.Max(lines), true, nil
}
