package ckpt

import (
	"fmt"
	"sort"

	"repro/internal/mem"
	"repro/internal/storage"
)

// Recovery-line verification: LatestConsistentSeq trusts the key space —
// a segment whose key exists counts, whatever its bytes hold. On a
// storage tier that can tear, rot or lose segments that is not enough:
// choosing a recovery line means proving every byte of every rank's
// restore chain is actually readable and decodable. VerifyChain proves
// it for one rank, VerifyLine for a full coordinated line, and
// LatestVerifiableSeq picks the newest line that survives proof —
// skipping corrupt or incomplete lines instead of handing the supervisor
// a restore that will blow up mid-recovery.

// VerifyChain checks that rank's restore chain ending at targetSeq is
// complete and sound: every segment from the chain's base full segment
// through the target fetches, passes the storage tier's integrity
// checks, decodes, and is chain-consistent (full base, matching epochs,
// one page size, restorable content), and the target's region table is
// one Restore maps as written (checkRegionTable). A nil return means
// Restore to targetSeq will not fail on the data path.
func VerifyChain(store storage.Store, rank int, targetSeq uint64) error {
	target, err := LoadSegment(store, rank, targetSeq)
	if err != nil {
		return fmt.Errorf("ckpt: verify rank %d seq %d: %w", rank, targetSeq, err)
	}
	if target.Rank != rank || target.Seq != targetSeq {
		return fmt.Errorf("ckpt: verify rank %d seq %d: segment labeled rank %d seq %d",
			rank, targetSeq, target.Rank, target.Seq)
	}
	if target.Epoch > targetSeq {
		return fmt.Errorf("ckpt: verify rank %d seq %d: epoch %d after target", rank, targetSeq, target.Epoch)
	}
	if err := checkRegionTable(target.Regions, target.PageSize); err != nil {
		return fmt.Errorf("ckpt: verify rank %d seq %d: %w", rank, targetSeq, err)
	}
	for seq := target.Epoch; seq <= targetSeq; seq++ {
		seg := target
		if seq != targetSeq {
			if seg, err = LoadSegment(store, rank, seq); err != nil {
				return fmt.Errorf("ckpt: verify rank %d seq %d: chain segment %d: %w", rank, targetSeq, seq, err)
			}
		}
		switch {
		case seg.Rank != rank || seg.Seq != seq:
			return fmt.Errorf("ckpt: verify rank %d seq %d: segment %d labeled rank %d seq %d",
				rank, targetSeq, seq, seg.Rank, seg.Seq)
		case seq == target.Epoch && seg.Kind != Full:
			return fmt.Errorf("ckpt: verify rank %d seq %d: chain base %d is %s", rank, targetSeq, seq, seg.Kind)
		case seq != target.Epoch && seg.Kind != Incremental:
			return fmt.Errorf("ckpt: verify rank %d seq %d: mid-chain segment %d is %s", rank, targetSeq, seq, seg.Kind)
		case seg.Epoch != target.Epoch:
			return fmt.Errorf("ckpt: verify rank %d seq %d: segment %d epoch %d != chain epoch %d",
				rank, targetSeq, seq, seg.Epoch, target.Epoch)
		case seg.PageSize != target.PageSize:
			return fmt.Errorf("ckpt: verify rank %d seq %d: segment %d page size %d != %d",
				rank, targetSeq, seq, seg.PageSize, target.PageSize)
		case seg.ContentFree:
			return fmt.Errorf("ckpt: verify rank %d seq %d: segment %d is content-free, not restorable",
				rank, targetSeq, seq)
		}
	}
	return nil
}

// checkRegionTable rejects a region table Restore could not map as
// written: an entry unaligned to pageSize or empty, one wrapping past the
// top of the address space, one over the stack every address space maps
// from creation, one not after its predecessor (the checkpointer writes
// the table in address order, so an overlap is exactly that), or one
// whose kind is not checkpointable data memory.
func checkRegionTable(regions []RegionInfo, pageSize uint64) error {
	var end uint64
	for i, ri := range regions {
		switch {
		case ri.Start%pageSize != 0 || ri.Size%pageSize != 0 || ri.Size == 0:
			return fmt.Errorf("region %d (%#x, %d bytes) is not whole %d-byte pages", i, ri.Start, ri.Size, pageSize)
		case ri.Start+ri.Size <= ri.Start:
			return fmt.Errorf("region %d (%#x, %d bytes) wraps the address space", i, ri.Start, ri.Size)
		case ri.Start < mem.StackTop && mem.StackTop-mem.StackSize < ri.Start+ri.Size:
			return fmt.Errorf("region %d (%#x, %d bytes) overlaps the stack", i, ri.Start, ri.Size)
		case i > 0 && ri.Start < end:
			return fmt.Errorf("region %d at %#x overlaps or precedes region %d", i, ri.Start, i-1)
		case !ri.Kind.Checkpointable():
			return fmt.Errorf("region %d at %#x has kind %v, not checkpointable data", i, ri.Start, ri.Kind)
		}
		end = ri.Start + ri.Size
	}
	return nil
}

// VerifyLine checks the coordinated recovery line at seq: every one of
// the given ranks must have a verifiable chain ending there.
func VerifyLine(store storage.Store, ranks int, seq uint64) error {
	for r := 0; r < ranks; r++ {
		if err := VerifyChain(store, r, seq); err != nil {
			return err
		}
	}
	return nil
}

// LatestVerifiableSeq returns the newest coordinated recovery line whose
// every chain verifies end to end, scanning candidate lines newest
// first and skipping any that are incomplete (a rank missing the
// sequence) or damaged (torn, corrupt, mis-chained segments). ok is
// false when no line at all survives verification — the caller must
// restart from scratch. The error return is reserved for the key
// listing itself failing; per-line damage never surfaces as an error.
func LatestVerifiableSeq(store storage.Store, ranks int) (seq uint64, ok bool, err error) {
	if ranks <= 0 {
		return 0, false, nil
	}
	keys, err := store.Keys()
	if err != nil {
		return 0, false, err
	}
	// Candidate lines: sequences present (as keys) for every rank.
	perRank := make([]map[uint64]bool, ranks)
	for i := range perRank {
		perRank[i] = make(map[uint64]bool)
	}
	for _, k := range keys {
		var rank int
		var s uint64
		if !ParseSegmentKey(k, &rank, &s) || rank < 0 || rank >= ranks {
			continue
		}
		perRank[rank][s] = true
	}
	var candidates []uint64
	for s := range perRank[0] {
		common := true
		for r := 1; r < ranks; r++ {
			if !perRank[r][s] {
				common = false
				break
			}
		}
		if common {
			candidates = append(candidates, s)
		}
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i] > candidates[j] })
	for _, s := range candidates {
		if VerifyLine(store, ranks, s) == nil {
			return s, true, nil
		}
	}
	return 0, false, nil
}
