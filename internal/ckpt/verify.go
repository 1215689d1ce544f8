package ckpt

import (
	"fmt"

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
// skipping corrupt or incomplete lines. Recovery itself proves a line by
// restoring it: RestoreLatest scans the same candidates and keeps the
// first line whose every chain replays, so each chain is read once.

// VerifyChain checks that rank's restore chain ending at targetSeq is
// complete and sound: it is walkChain with no visitor, so a nil return
// means a restore to targetSeq (replayChain) replays that chain, and an
// error is the one the restore would return.
func VerifyChain(store storage.Store, rank int, targetSeq uint64) error {
	return walkChain(store, rank, targetSeq, nil)
}

// walkChain is the one place a restore chain is judged: VerifyChain,
// ChainVolume and replayChain (RestoreAll, RestoreLatest) all call it.
// It fetches rank's target segment targetSeq, then the chain from its
// base full segment forward: Gets target, then epoch … targetSeq-1.
// Every segment must fetch, pass the storage tier's integrity checks and
// decode. The target must carry its own labels, an epoch not after it and
// a region table replayChain maps as written (checkRegionTable). Every
// segment must carry its labels, its kind (full base, then incremental),
// the chain's epoch and page size, and content.
//
// visit, when non-nil, receives each proven segment in replay order,
// base first and target last, with the target and the segment's encoded
// size; its error ends the walk. It must not keep seg: the walk decodes
// every mid-chain segment into one Segment.
//
// A fetch failure keeps the storage tier's typed cause, and a segment
// that decodes but does not chain is typed storage.ErrCorrupt. A
// content-free segment is a sound phantom segment, not damage, so it is
// rejected untyped.
func walkChain(store storage.Store, rank int, targetSeq uint64, visit func(target, seg *Segment, size uint64) error) error {
	corrupt := func(format string, args ...any) error {
		return fmt.Errorf("ckpt: verify rank %d seq %d: %s: %w", rank, targetSeq, fmt.Sprintf(format, args...), storage.ErrCorrupt)
	}
	segs := new([2]Segment) // the target, and every mid-chain segment in turn
	target, size, err := loadSegment(store, rank, targetSeq, &segs[0])
	if err != nil {
		return fmt.Errorf("ckpt: verify rank %d seq %d: %w", rank, targetSeq, err)
	}
	if target.Rank != rank || target.Seq != targetSeq {
		return corrupt("segment labeled rank %d seq %d", target.Rank, target.Seq)
	}
	if target.Epoch > targetSeq {
		return corrupt("epoch %d after target", target.Epoch)
	}
	if err := checkRegionTable(target.Regions, target.PageSize); err != nil {
		return corrupt("%v", err)
	}
	for seq := target.Epoch; seq <= targetSeq; seq++ {
		seg, n := target, size
		if seq != targetSeq {
			if seg, n, err = loadSegment(store, rank, seq, &segs[1]); err != nil {
				return fmt.Errorf("ckpt: verify rank %d seq %d: chain segment %d: %w", rank, targetSeq, seq, err)
			}
		}
		switch {
		case seg.Rank != rank || seg.Seq != seq:
			return corrupt("segment %d labeled rank %d seq %d", seq, seg.Rank, seg.Seq)
		case seq == target.Epoch && seg.Kind != Full:
			return corrupt("chain base %d is %s", seq, seg.Kind)
		case seq != target.Epoch && seg.Kind != Incremental:
			return corrupt("mid-chain segment %d is %s", seq, seg.Kind)
		case seg.Epoch != target.Epoch:
			return corrupt("segment %d epoch %d != chain epoch %d", seq, seg.Epoch, target.Epoch)
		case seg.PageSize != target.PageSize:
			return corrupt("segment %d page size %d != %d", seq, seg.PageSize, target.PageSize)
		case seg.ContentFree:
			return fmt.Errorf("ckpt: verify rank %d seq %d: segment %d is content-free, not restorable",
				rank, targetSeq, seq)
		}
		if visit != nil {
			if err := visit(target, seg, n); err != nil {
				return err
			}
		}
	}
	return nil
}

// maxRegionSize bounds one entry of a region table. A restore maps every
// region before it reads a page record: MapAt makes the region's
// protection bitmap, and its first page makes the whole-region slab. So
// a size that rotted into the terabytes would allocate before any page
// could prove the chain wrong. The largest footprint the paper measures
// is about 1 GB per process (Sage-1000MB), so no region a checkpointer
// writes comes near 4 GB.
const maxRegionSize = 1 << 32

// checkRegionTable rejects a region table a restore could not map as
// written: an entry unaligned to pageSize or empty, one wrapping past the
// top of the address space, one larger than maxRegionSize, one over the
// stack every address space maps from creation, one not after its
// predecessor (the checkpointer writes the table in address order, so an
// overlap is exactly that), or one whose kind is not checkpointable data
// memory.
func checkRegionTable(regions []RegionInfo, pageSize uint64) error {
	var end uint64
	for i, ri := range regions {
		switch {
		case ri.Start%pageSize != 0 || ri.Size%pageSize != 0 || ri.Size == 0:
			return fmt.Errorf("region %d (%#x, %d bytes) is not whole %d-byte pages", i, ri.Start, ri.Size, pageSize)
		case ri.Start+ri.Size <= ri.Start:
			return fmt.Errorf("region %d (%#x, %d bytes) wraps the address space", i, ri.Start, ri.Size)
		case ri.Size > maxRegionSize:
			return fmt.Errorf("region %d (%#x, %d bytes) is larger than %d bytes", i, ri.Start, ri.Size, uint64(maxRegionSize))
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
// every chain verifies end to end: newestLine under the plain trust rule,
// proving each candidate with VerifyLine instead of restoring it. It
// skips lines that are incomplete (a rank missing the sequence) or
// damaged (torn, corrupt, mis-chained segments). ok is false when no line
// at all survives verification — the caller must restart from scratch.
// The error return is reserved for the key listing itself failing;
// per-line damage never surfaces as an error.
func LatestVerifiableSeq(store storage.Store, ranks int) (seq uint64, ok bool, err error) {
	return newestLine(store, ranks, false, func(seq uint64) error { return VerifyLine(store, ranks, seq) })
}
