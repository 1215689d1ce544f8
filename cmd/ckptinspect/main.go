// Command ckptinspect examines a file-backed checkpoint store: per-rank
// segment chains, kinds, page counts and sizes, plus the latest
// consistent coordinated recovery line. With -verify it decodes every
// segment, proves each one's restore chain with ckpt.VerifyChain, reports
// the latest verifiable recovery line, and exits 1 on any problem. With
// -multilevel the directory is a multi-level hierarchy (manifest +
// per-rank L1 stores + L3): the tool prints the parity-group placement
// over failure domains and, per checkpoint line and rank, which
// redundancy level can serve (and verify) the segment — local copy,
// parity rebuild, or global store.
//
// Produce a store to inspect with:
//
//	ckptinspect -demo -dir /tmp/ckpts            # runs a small supervised solve first
//	ckptinspect -dir /tmp/ckpts -verify
//	ckptinspect -demo -multilevel -dir /tmp/ml   # builds a small hierarchy
//	ckptinspect -multilevel -dir /tmp/ml
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/autonomic"
	"repro/internal/ckpt"
	"repro/internal/des"
	"repro/internal/storage"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ckptinspect:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("ckptinspect", flag.ContinueOnError)
	dir := fs.String("dir", "", "checkpoint store directory (required)")
	verify := fs.Bool("verify", false, "decode every segment and verify every restore chain")
	demo := fs.Bool("demo", false, "first populate the store by running a supervised Jacobi solve under coordinated checkpointing")
	multilevel := fs.Bool("multilevel", false, "inspect a multi-level hierarchy directory (manifest + L1 stores + L3)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return errors.New("-dir is required")
	}
	if *multilevel {
		return inspectMultiLevel(w, *dir, *demo)
	}
	store, err := storage.NewFileStore(*dir)
	if err != nil {
		return err
	}

	if *demo {
		rep, err := autonomic.Run(autonomic.Config{
			Ranks: 2, Nx: 32, RowsPerRank: 8, Boundary: 100, Iterations: 20, CkptEvery: 5,
			ComputeTime: 100 * des.Millisecond, Seed: 7, Store: store,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "demo: supervised Jacobi on 2 ranks — %d checkpoint lines, %.1f KB\n\n",
			rep.CommittedLines, rep.CheckpointVolumeMB*1e3)
	}

	keys, err := store.Keys()
	if err != nil {
		return err
	}
	type segRef struct {
		rank int
		seq  uint64
		key  string
	}
	var refs []segRef
	for _, k := range keys {
		var r segRef
		if ckpt.ParseSegmentKey(k, &r.rank, &r.seq) {
			r.key = k
			refs = append(refs, r)
		}
	}
	if len(refs) == 0 {
		return fmt.Errorf("no checkpoint segments under %s", *dir)
	}
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].rank != refs[j].rank {
			return refs[i].rank < refs[j].rank
		}
		return refs[i].seq < refs[j].seq
	})

	ranks := 0
	fmt.Fprintf(w, "%-6s %-6s %-12s %-8s %10s %12s %12s\n",
		"rank", "seq", "kind", "epoch", "pages", "bytes", "taken at")
	var problems int
	for _, ref := range refs {
		if ref.rank+1 > ranks {
			ranks = ref.rank + 1
		}
		data, err := store.Get(ref.key)
		if err != nil {
			return err
		}
		if !*verify {
			fmt.Fprintf(w, "%-6d %-6d %-12s %-8s %10s %12d %12s\n",
				ref.rank, ref.seq, "-", "-", "-", len(data), "-")
			continue
		}
		seg, err := ckpt.DecodeSegment(data)
		if err != nil {
			fmt.Fprintf(w, "%-6d %-6d CORRUPT: %v\n", ref.rank, ref.seq, err)
			problems++
			continue
		}
		fmt.Fprintf(w, "%-6d %-6d %-12s %-8d %10d %12d %11.1fs\n",
			ref.rank, seg.Seq, seg.Kind, seg.Epoch, len(seg.Pages), len(data), seg.TakenAt.Seconds())
		if err := ckpt.VerifyChain(store, ref.rank, ref.seq); err != nil {
			fmt.Fprintf(w, "       ^ chain error: %v\n", err)
			problems++
		}
	}

	seq, ok, err := ckpt.LatestConsistentSeq(store, ranks)
	if err != nil {
		return err
	}
	size, _ := store.Size()
	fmt.Fprintf(w, "\nstore: %d segments, %d ranks, %.1f KB total\n", len(refs), ranks, float64(size)/1024)
	if ok {
		fmt.Fprintf(w, "latest consistent recovery line: seq %d\n", seq)
	} else {
		fmt.Fprintln(w, "NO consistent recovery line (no sequence every rank holds)")
	}
	if !*verify {
		return nil
	}
	seq, ok, err = ckpt.LatestVerifiableSeq(store, ranks)
	if err != nil {
		return err
	}
	if ok {
		fmt.Fprintf(w, "latest verifiable recovery line: seq %d\n", seq)
	} else {
		fmt.Fprintln(w, "NO verifiable recovery line")
		problems++
	}
	if problems > 0 {
		return fmt.Errorf("verify: %d problems found", problems)
	}
	fmt.Fprintln(w, "verify: all segments decode, every chain verifies")
	return nil
}
