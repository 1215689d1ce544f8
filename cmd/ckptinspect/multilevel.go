package main

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/ckpt"
	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/mem"
	"repro/internal/mpi"
	"repro/internal/redundancy"
)

// demoHierarchy populates dir with a small XOR-protected hierarchy:
// four ranks, singleton failure domains, three coordinated lines with
// parity exchanged per line and every second line written through to
// L3. One rank's L1 chain is then deleted so the inspection shows a
// live degradation — segments only a parity rebuild (or L3) can serve.
func demoHierarchy(dir string) error {
	domains, err := cluster.NewDomainMap(4, 1)
	if err != nil {
		return err
	}
	h, err := redundancy.NewFileHierarchy(dir,
		redundancy.Scheme{Kind: redundancy.XOR, K: 2, M: 1}, domains, 2, mpi.QsNet())
	if err != nil {
		return err
	}
	eng := des.NewEngine()
	var cps []*ckpt.Checkpointer
	var regions []*mem.Region
	for i := 0; i < h.Ranks(); i++ {
		sp := mem.NewAddressSpace(mem.Config{PageSize: 512})
		reg, err := sp.Mmap(4 * 512)
		if err != nil {
			return err
		}
		sp.Write(reg.Start(), bytes.Repeat([]byte{byte(i + 1)}, 512))
		c, err := ckpt.NewCheckpointer(eng, sp, ckpt.Options{Rank: i, Store: h.RankStore(i)})
		if err != nil {
			return err
		}
		c.Start()
		cps = append(cps, c)
		regions = append(regions, reg)
	}
	co, err := ckpt.NewCoordinator(eng, cps)
	if err != nil {
		return err
	}
	for line := 0; line < 3; line++ {
		for i, c := range cps {
			payload := bytes.Repeat([]byte{byte(16*i + line + 1)}, 512)
			c.Space().Write(regions[i].Start()+uint64(512*(line%4)), payload)
		}
		g, err := co.GlobalCheckpoint()
		if err != nil {
			return err
		}
		if _, err := h.EncodeLine(g.Seq); err != nil {
			return err
		}
	}
	// Lose rank 1's node-local chain: its lines survive only as parity
	// shards on its partners (and every second line on L3).
	if err := h.WipeRank(1); err != nil {
		return err
	}
	return nil
}

// inspectMultiLevel prints a hierarchy's geometry and, per line × rank,
// which redundancy level can serve the segment.
func inspectMultiLevel(w io.Writer, dir string, demo bool) error {
	if demo {
		if err := demoHierarchy(dir); err != nil {
			return err
		}
		fmt.Fprintf(w, "demo: 4-rank xor 2+1 hierarchy, 3 lines, L3 every 2 lines; rank 1's L1 wiped\n\n")
	}
	h, err := redundancy.LoadFileHierarchy(dir)
	if err != nil {
		return err
	}
	scheme := h.Scheme()
	dm := h.Domains()
	fmt.Fprintf(w, "hierarchy: %d ranks, scheme %v", h.Ranks(), scheme.Kind)
	if scheme.Kind != redundancy.None {
		fmt.Fprintf(w, " k=%d m=%d", scheme.K, scheme.M)
	}
	fmt.Fprintf(w, ", %d failure domains, L3 every %d lines\n", dm.Domains(), h.GlobalEvery())
	for _, g := range h.Groups() {
		fmt.Fprintf(w, "  group %d: members %v  parity on %v  domains %s\n",
			g.ID, g.Members, g.Partners, domainsOf(dm, append(append([]int(nil), g.Members...), g.Partners...)))
	}

	// Collect every line any tier knows about.
	seqs := map[uint64]bool{}
	for r := 0; r < h.Ranks(); r++ {
		keys, err := h.Local(r).Keys()
		if err != nil {
			continue
		}
		for _, k := range keys {
			var seq uint64
			var gi, shard int
			if ckpt.ParseSegmentKey(k, nil, &seq) || redundancy.ParseParityKey(k, &gi, &seq, &shard) {
				seqs[seq] = true
			}
		}
	}
	if gkeys, err := h.Global().Keys(); err == nil {
		for _, k := range gkeys {
			var seq uint64
			if ckpt.ParseSegmentKey(k, nil, &seq) {
				seqs[seq] = true
			}
		}
	}
	if len(seqs) == 0 {
		return fmt.Errorf("no checkpoint lines under %s", dir)
	}
	ordered := make([]uint64, 0, len(seqs))
	for s := range seqs {
		ordered = append(ordered, s)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i] < ordered[j] })

	fmt.Fprintf(w, "\n%-6s %-6s %-6s %-10s %-10s %-10s %s\n",
		"seq", "rank", "group", "L1-local", "L2-parity", "L3-global", "serves")
	for _, seq := range ordered {
		for r := 0; r < h.Ranks(); r++ {
			l1 := segStatus(h.Local(r), r, seq)
			l2, gid := parityStatus(h, r, seq)
			l3 := segStatus(h.Global(), r, seq)
			serves := "NONE"
			switch {
			case l1 == "ok":
				serves = redundancy.LevelName(redundancy.LevelLocal)
			case l2 == "ok":
				serves = redundancy.LevelName(redundancy.LevelParity)
			case l3 == "ok":
				serves = redundancy.LevelName(redundancy.LevelGlobal)
			}
			fmt.Fprintf(w, "%-6d %-6d %-6s %-10s %-10s %-10s %s\n", seq, r, gid, l1, l2, l3, serves)
		}
	}

	// The tiered view proves what a recovery would actually restore.
	view := h.NewView()
	line, ok, err := ckpt.LatestVerifiableSeq(view, h.Ranks())
	if err != nil {
		return err
	}
	st := view.Stats()
	if ok {
		fmt.Fprintf(w, "\nlatest verifiable recovery line: seq %d\n", line)
	} else {
		fmt.Fprintln(w, "\nNO verifiable recovery line at any level")
	}
	for l := 0; l < redundancy.LevelCount; l++ {
		fmt.Fprintf(w, "  %s: %d reads, %d bytes\n", redundancy.LevelName(l), st.LevelReads[l], st.LevelBytes[l])
	}
	if st.Rebuilds > 0 || st.CorruptShards > 0 || st.RebuildFailures > 0 {
		fmt.Fprintf(w, "  rebuilds %d (failed %d), corrupt parity shards %d, repaired back %d\n",
			st.Rebuilds, st.RebuildFailures, st.CorruptShards, st.RepairedBack)
	}
	return nil
}

// segStatus classifies one rank's segment copy in one store: "ok" when
// present and decodable, "CORRUPT" when present but undecodable, "-"
// when absent.
func segStatus(st interface {
	Get(string) ([]byte, error)
}, rank int, seq uint64) string {
	data, err := st.Get(ckpt.SegmentKey(rank, seq))
	if err != nil {
		return "-"
	}
	if _, err := ckpt.DecodeSegment(data); err != nil {
		return "CORRUPT"
	}
	return "ok"
}

// parityStatus reports whether rank's parity group holds at least one
// parseable shard for the line ("ok" / "CORRUPT" when every stored
// shard fails its frame CRC / "-" when none stored), plus the group id.
func parityStatus(h *redundancy.Hierarchy, rank int, seq uint64) (string, string) {
	g, ok := h.GroupOf(rank)
	if !ok {
		return "-", "-"
	}
	k := h.Scheme().K
	stored, usable := 0, 0
	for j, partner := range g.Partners {
		raw, err := h.Local(partner).Get(redundancy.ParityKey(g.ID, seq, k+j))
		if err != nil {
			continue
		}
		stored++
		if _, err := redundancy.ParseParityFrame(raw); err == nil {
			usable++
		}
	}
	gid := fmt.Sprintf("%d", g.ID)
	switch {
	case usable > 0:
		return "ok", gid
	case stored > 0:
		return "CORRUPT", gid
	}
	return "-", gid
}

// domainsOf names the failure domains a shard placement spans.
func domainsOf(dm *cluster.DomainMap, ranks []int) string {
	var names []string
	for _, r := range ranks {
		names = append(names, dm.Name(dm.Of(r)))
	}
	return strings.Join(names, ",")
}
