package redundancy

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/ckpt"
	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/mpi"
	"repro/internal/storage"
)

// Config describes a multi-level checkpoint hierarchy.
type Config struct {
	// Scheme selects the L2 redundancy codec and group geometry.
	Scheme Scheme
	// Domains maps ranks to failure domains; placement guarantees no
	// two shards of a parity group share a domain. Required unless
	// Scheme.Kind is None.
	Domains *cluster.DomainMap
	// Global is the L3 store of last resort (the existing global
	// store/service). Required.
	Global storage.Store
	// GlobalEvery writes through to L3 every Nth checkpoint line
	// (seq % GlobalEvery == 0); values <= 1 write every line through.
	// Align it with the checkpointer's FullEvery so L3 lines are
	// self-contained full segments.
	GlobalEvery int
	// Net is the interconnect model parity-shard exchange rides on.
	Net mpi.Network
	// Direct marks an RDMA-capable fabric: partner writes are one-sided
	// DMA deposits, so the exchange cost skips the CPU bounce copy.
	Direct bool
	// NewLocal builds rank r's L1 store; nil defaults to MemStore.
	// Tests substitute FileStore or MirrorStore-wrapped L1s here.
	NewLocal func(rank int) storage.Store
}

// Group is one parity group: K member ranks whose segments form the
// data shards (shard i belongs to Members[i]) and M partner ranks
// holding the parity shards (shard K+j lives on Partners[j]'s L1).
type Group struct {
	ID       int
	Members  []int
	Partners []int
}

// Stats counts L2 encode/exchange activity.
type Stats struct {
	// Encodes is the number of checkpoint lines parity-protected.
	Encodes uint64
	// ExchangeBytes is the total bytes moved between ranks for parity
	// computation (member segments to partners).
	ExchangeBytes uint64
	// ParityBytes is the total framed parity bytes stored on partners.
	ParityBytes uint64
}

// Hierarchy owns the three checkpoint tiers and the parity-group
// placement over the failure-domain map.
type Hierarchy struct {
	cfg     Config
	codec   Codec // nil for Scheme None
	groups  []Group
	groupOf []int // rank → group index; -1 when Scheme is None
	shardOf []int // rank → data-shard index within its group
	local   []storage.Store
	stats   Stats
}

// NewHierarchy validates the scheme against the domain map, computes a
// domain-disjoint placement, and builds the per-rank L1 stores.
func NewHierarchy(cfg Config) (*Hierarchy, error) {
	if err := cfg.Scheme.Validate(); err != nil {
		return nil, err
	}
	if cfg.Global == nil {
		return nil, fmt.Errorf("redundancy: hierarchy needs a global (L3) store")
	}
	if cfg.Domains == nil {
		return nil, fmt.Errorf("redundancy: hierarchy needs a failure-domain map")
	}
	ranks := cfg.Domains.Ranks()
	if cfg.Scheme.Kind != None && ranks%cfg.Scheme.K != 0 {
		return nil, fmt.Errorf("redundancy: %d ranks do not divide into groups of k=%d", ranks, cfg.Scheme.K)
	}
	h := &Hierarchy{cfg: cfg}
	if cfg.NewLocal == nil {
		h.cfg.NewLocal = func(int) storage.Store { return storage.NewMemStore() }
	}
	for r := 0; r < ranks; r++ {
		h.local = append(h.local, h.cfg.NewLocal(r))
	}
	if cfg.Scheme.Kind == None {
		h.groupOf = make([]int, ranks)
		h.shardOf = make([]int, ranks)
		for r := range h.groupOf {
			h.groupOf[r] = -1
			h.shardOf[r] = -1
		}
		return h, nil
	}
	codec, err := NewCodec(cfg.Scheme)
	if err != nil {
		return nil, err
	}
	h.codec = codec
	if err := h.place(); err != nil {
		return nil, err
	}
	return h, nil
}

// place deals ranks into parity groups and picks parity partners so
// that no two shards of a group — data or parity — share a failure
// domain. The placement is a pure function of (scheme, domain map).
func (h *Hierarchy) place() error {
	dm := h.cfg.Domains
	ranks := dm.Ranks()
	k, m := h.cfg.Scheme.K, h.cfg.Scheme.M
	nGroups := ranks / k
	if mx := dm.MaxDomainSize(); mx > nGroups {
		return fmt.Errorf("redundancy: domain of %d ranks cannot spread over %d groups (k=%d); shrink domains or k", mx, nGroups, k)
	}
	// Deal ranks domain-major, round-robin across groups: consecutive
	// ranks of one domain land in consecutive groups, so a domain never
	// places two members in one group when it has at most nGroups ranks.
	order := make([]int, ranks)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		da, db := dm.Of(order[a]), dm.Of(order[b])
		if da != db {
			return da < db
		}
		return order[a] < order[b]
	})
	h.groups = make([]Group, nGroups)
	h.groupOf = make([]int, ranks)
	h.shardOf = make([]int, ranks)
	for i, r := range order {
		g := i % nGroups
		h.groupOf[r] = g
		h.shardOf[r] = len(h.groups[g].Members)
		h.groups[g].ID = g
		h.groups[g].Members = append(h.groups[g].Members, r)
	}
	// Partners: for each group, scan ranks (rotated by group id so the
	// parity load spreads) for m ranks outside the group whose domains
	// are disjoint from every member's and every prior partner's.
	for g := range h.groups {
		used := make(map[int]bool)
		for _, r := range h.groups[g].Members {
			if used[dm.Of(r)] {
				return fmt.Errorf("redundancy: group %d places two members in domain %s", g, dm.Name(dm.Of(r)))
			}
			used[dm.Of(r)] = true
		}
		for j := 0; j < m; j++ {
			found := -1
			for off := 0; off < ranks; off++ {
				cand := (g*k + k + off) % ranks
				if h.groupOf[cand] == g || used[dm.Of(cand)] {
					continue
				}
				found = cand
				break
			}
			if found == -1 {
				return fmt.Errorf("redundancy: group %d cannot place parity shard %d in a fresh domain (need %d distinct domains, have %d)", g, j, k+m, dm.Domains())
			}
			used[dm.Of(found)] = true
			h.groups[g].Partners = append(h.groups[g].Partners, found)
		}
	}
	return nil
}

// Ranks returns the number of ranks.
func (h *Hierarchy) Ranks() int { return len(h.local) }

// Scheme returns the configured redundancy scheme.
func (h *Hierarchy) Scheme() Scheme { return h.cfg.Scheme }

// Domains returns the failure-domain map the placement was planned over.
func (h *Hierarchy) Domains() *cluster.DomainMap { return h.cfg.Domains }

// GlobalEvery returns the L3 write-through period in lines.
func (h *Hierarchy) GlobalEvery() int {
	if h.cfg.GlobalEvery < 1 {
		return 1
	}
	return h.cfg.GlobalEvery
}

// Groups returns a copy of the parity-group placement.
func (h *Hierarchy) Groups() []Group {
	out := make([]Group, len(h.groups))
	for i, g := range h.groups {
		out[i] = Group{
			ID:       g.ID,
			Members:  append([]int(nil), g.Members...),
			Partners: append([]int(nil), g.Partners...),
		}
	}
	return out
}

// GroupOf returns the parity group rank r's segments belong to, or
// (Group{}, false) when the scheme has no L2.
func (h *Hierarchy) GroupOf(rank int) (Group, bool) {
	if rank < 0 || rank >= len(h.groupOf) || h.groupOf[rank] < 0 {
		return Group{}, false
	}
	g := h.groups[h.groupOf[rank]]
	return Group{ID: g.ID, Members: append([]int(nil), g.Members...), Partners: append([]int(nil), g.Partners...)}, true
}

// Local returns rank r's raw L1 store.
func (h *Hierarchy) Local(rank int) storage.Store { return h.local[rank] }

// Global returns the L3 store.
func (h *Hierarchy) Global() storage.Store { return h.cfg.Global }

// Stats returns a copy of the L2 activity counters.
func (h *Hierarchy) Stats() Stats { return h.stats }

// ParityKey names the stored frame of shard s (in [k, k+m)) protecting
// group g's line seq.
func ParityKey(group int, seq uint64, shard int) string {
	return fmt.Sprintf("parity/g%03d/seq%06d/s%02d", group, seq, shard)
}

// ParseParityKey inverts ParityKey.
func ParseParityKey(key string, group *int, seq *uint64, shard *int) bool {
	var g, s int
	var q uint64
	n, err := fmt.Sscanf(key, "parity/g%03d/seq%06d/s%02d", &g, &q, &s)
	if err != nil || n != 3 {
		return false
	}
	if key != ParityKey(g, q, s) {
		return false
	}
	if group != nil {
		*group = g
	}
	if seq != nil {
		*seq = q
	}
	if shard != nil {
		*shard = s
	}
	return true
}

// RankStore returns rank r's checkpoint store: every Put lands on L1,
// and lines with seq % GlobalEvery == 0 write through to L3, as does
// every two-phase COMMIT marker — it speaks for the whole team, so it
// must outlive any one rank's L1. Reads and deletes touch L1 only — L3
// is the archive of last resort and is never pruned by rank-local
// retention.
func (h *Hierarchy) RankStore(rank int) storage.Store {
	return &rankStore{h: h, rank: rank}
}

type rankStore struct {
	h    *Hierarchy
	rank int
}

func (s *rankStore) Put(key string, data []byte) error { return s.put(key, data, storage.Store.Put) }

// PutOwned implements storage.OwnedPutter: the frozen buffer becomes the
// stored value on L1 and, for a write-through line, on L3 as well — the
// two tiers keep one buffer.
func (s *rankStore) PutOwned(key string, data []byte) error {
	return s.put(key, data, storage.PutOwned)
}

func (s *rankStore) put(key string, data []byte, put func(storage.Store, string, []byte) error) error {
	if err := put(s.h.local[s.rank], key, data); err != nil {
		return err
	}
	if s.writesThrough(key) {
		if err := put(s.h.cfg.Global, key, data); err != nil {
			return fmt.Errorf("redundancy: L3 write-through %q: %w", key, err)
		}
	}
	return nil
}

func (s *rankStore) writesThrough(key string) bool {
	var seq uint64
	if ckpt.ParseSegmentKey(key, nil, &seq) {
		return seq%uint64(max(s.h.cfg.GlobalEvery, 1)) == 0
	}
	return ckpt.ParseCommitKey(key, nil)
}

func (s *rankStore) Get(key string) ([]byte, error) { return s.h.local[s.rank].Get(key) }
func (s *rankStore) Delete(key string) error        { return s.h.local[s.rank].Delete(key) }
func (s *rankStore) Keys() ([]string, error)        { return s.h.local[s.rank].Keys() }
func (s *rankStore) Size() (uint64, error)          { return s.h.local[s.rank].Size() }

// ExchangeReport accounts one line's parity exchange.
type ExchangeReport struct {
	// Bytes is the member-segment traffic moved to partners.
	Bytes uint64
	// ParityBytes is the framed parity volume stored on partner L1s.
	ParityBytes uint64
	// Time is the modeled wall time of the exchange: groups run
	// concurrently; within a group the cost is the slower of the
	// busiest sender and the busiest receiver (plus the CPU copy on
	// non-RDMA fabrics).
	Time des.Time
}

// EncodeLine parity-protects checkpoint line seq: each group reads its
// members' segments on L1, encodes the parity shards straight into their
// frames, and gives the frames to its partners' L1 stores. The segments
// are borrowed and never padded — the codec zero-extends the short ones
// — so the frames are the only buffers a line allocates. Missing member
// segments are an error — the caller invokes this only after a line
// fully commits.
func (h *Hierarchy) EncodeLine(seq uint64) (ExchangeReport, error) {
	var rep ExchangeReport
	if h.codec == nil {
		return rep, nil
	}
	k, m := h.cfg.Scheme.K, h.cfg.Scheme.M
	segs := make([][]byte, k)
	members := make([]MemberRef, k)
	frames := make([][]byte, m)
	parity := make([][]byte, m)
	for gi := range h.groups {
		g := &h.groups[gi]
		shardLen := 0
		var groupSend uint64
		for i, r := range g.Members {
			data, err := h.local[r].Get(ckpt.SegmentKey(r, seq))
			if err != nil {
				return rep, fmt.Errorf("redundancy: group %d member %d line %d: %w", gi, r, seq, err)
			}
			segs[i] = data
			members[i] = MemberRef{Rank: r, Length: uint32(len(data)), CRC: SegmentCRC(data)}
			shardLen = max(shardLen, len(data))
			groupSend += uint64(len(data)) * uint64(len(g.Partners))
		}
		if t := h.exchangeTime(segs, len(g.Partners)); t > rep.Time {
			rep.Time = t
		}
		for j := range frames {
			hdr := ParityFrame{Group: uint32(gi), Seq: seq, Shard: k + j, K: k, M: m, Members: members}
			var err error
			if frames[j], parity[j], err = beginParityFrame(&hdr, shardLen); err != nil {
				return rep, err
			}
		}
		h.codec.encodeInto(segs, parity)
		for j, frame := range frames {
			finishParityFrame(frame)
			partner, framed := g.Partners[j], uint64(len(frame))
			// The frame is exact-size and nothing else references it.
			if err := storage.PutOwned(h.local[partner], ParityKey(gi, seq, k+j), frame); err != nil {
				return rep, fmt.Errorf("redundancy: parity shard %d of group %d on rank %d: %w", k+j, gi, partner, err)
			}
			rep.ParityBytes += framed
		}
		rep.Bytes += groupSend
	}
	h.stats.Encodes++
	h.stats.ExchangeBytes += rep.Bytes
	h.stats.ParityBytes += rep.ParityBytes
	return rep, nil
}

// exchangeTime models one group's parity exchange on the link: every
// member streams its segment to each of the m partners (the busiest
// sender serializes m copies of its segment), every partner ingests all
// k member segments (the busiest receiver serializes k arrivals), and
// the group finishes when the slower side does. Direct fabrics deposit
// one-sided into the partner's memory; bounce fabrics add the CPU copy.
func (h *Hierarchy) exchangeTime(segs [][]byte, partners int) des.Time {
	var sender des.Time
	var total uint64
	for _, s := range segs {
		n := uint64(len(s))
		total += n
		t := des.Time(partners) * h.cfg.Net.TransferTime(n)
		if t > sender {
			sender = t
		}
	}
	var receiver des.Time
	for _, s := range segs {
		receiver += h.cfg.Net.TransferTime(uint64(len(s)))
	}
	if !h.cfg.Direct {
		receiver += h.cfg.Net.CopyTime(total)
	}
	if sender > receiver {
		return sender
	}
	return receiver
}

// WipeRank clears rank r's L1 store — the modeled loss of the node's
// local device (its checkpoint chain and any parity shards it held for
// other groups go with it).
func (h *Hierarchy) WipeRank(rank int) error {
	keys, err := h.local[rank].Keys()
	if err != nil {
		return err
	}
	for _, k := range keys {
		if err := h.local[rank].Delete(k); err != nil && !errors.Is(err, storage.ErrNotFound) {
			return err
		}
	}
	return nil
}

// CorruptParity flips one rng-chosen bit in the first stored parity
// shard protecting line seq, returning the damaged key. Used by tests
// and the A21 ablation to prove a corrupt shard degrades the read to
// the next tier rather than producing a torn restore.
func (h *Hierarchy) CorruptParity(seq uint64, rng *rand.Rand) (string, bool) {
	for gi := range h.groups {
		g := &h.groups[gi]
		for j, partner := range g.Partners {
			key := ParityKey(gi, seq, h.cfg.Scheme.K+j)
			data, err := h.local[partner].Get(key)
			if err != nil || len(data) == 0 {
				continue
			}
			if err := h.local[partner].Put(key, storage.FlipBit(data, rng.IntN(len(data)*8))); err != nil {
				continue
			}
			return key, true
		}
	}
	return "", false
}

// Manifest persistence: a file-backed hierarchy lays out as
//
//	<dir>/manifest      (text manifest below)
//	<dir>/local/rankNNN (one FileStore per rank)
//	<dir>/global        (the L3 FileStore)
//
// so cmd/ckptinspect can reopen the whole hierarchy from a directory.

// SaveManifest writes the hierarchy's geometry under dir, crash-atomically:
// a re-save leaves the old manifest or the new one, never a torn file.
func (h *Hierarchy) SaveManifest(dir string) error {
	var b strings.Builder
	fmt.Fprintf(&b, "multilevel v1\n")
	fmt.Fprintf(&b, "scheme %s %d %d\n", h.cfg.Scheme.Kind, h.cfg.Scheme.K, h.cfg.Scheme.M)
	fmt.Fprintf(&b, "ranks %d\n", len(h.local))
	fmt.Fprintf(&b, "globalevery %d\n", max(h.cfg.GlobalEvery, 1))
	if dm := h.cfg.Domains; dm != nil {
		for d := 0; d < dm.Domains(); d++ {
			fmt.Fprintf(&b, "domain %s", dm.Name(d))
			for _, r := range dm.Members(d) {
				fmt.Fprintf(&b, " %d", r)
			}
			fmt.Fprintf(&b, "\n")
		}
	}
	return storage.WriteFileAtomic(filepath.Join(dir, "manifest"), []byte(b.String()))
}

// NewFileHierarchy builds a file-backed hierarchy under dir and saves
// its manifest, so the layout is self-describing on disk.
func NewFileHierarchy(dir string, scheme Scheme, domains *cluster.DomainMap, globalEvery int, net mpi.Network) (*Hierarchy, error) {
	h, err := openFileHierarchy(dir, scheme, domains, globalEvery, net)
	if err != nil {
		return nil, err
	}
	if err := h.SaveManifest(dir); err != nil {
		return nil, err
	}
	return h, nil
}

// LoadFileHierarchy reopens a file-backed hierarchy from its manifest.
func LoadFileHierarchy(dir string) (*Hierarchy, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "manifest"))
	if err != nil {
		return nil, fmt.Errorf("redundancy: read manifest: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) < 4 || strings.TrimSpace(lines[0]) != "multilevel v1" {
		return nil, fmt.Errorf("redundancy: unrecognized manifest header")
	}
	var scheme Scheme
	ranks, globalEvery := 0, 1
	groups := make(map[string][]int)
	for _, ln := range lines[1:] {
		fields := strings.Fields(ln)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "scheme":
			if len(fields) != 4 {
				return nil, fmt.Errorf("redundancy: manifest scheme line %q", ln)
			}
			switch fields[1] {
			case "none":
				scheme.Kind = None
			case "xor":
				scheme.Kind = XOR
			case "rs":
				scheme.Kind = RS
			default:
				return nil, fmt.Errorf("redundancy: unknown scheme %q", fields[1])
			}
			if scheme.K, err = strconv.Atoi(fields[2]); err != nil {
				return nil, fmt.Errorf("redundancy: manifest k: %w", err)
			}
			if scheme.M, err = strconv.Atoi(fields[3]); err != nil {
				return nil, fmt.Errorf("redundancy: manifest m: %w", err)
			}
		case "ranks":
			if len(fields) != 2 {
				return nil, fmt.Errorf("redundancy: manifest ranks line %q", ln)
			}
			if ranks, err = strconv.Atoi(fields[1]); err != nil {
				return nil, fmt.Errorf("redundancy: manifest ranks: %w", err)
			}
		case "globalevery":
			if len(fields) != 2 {
				return nil, fmt.Errorf("redundancy: manifest globalevery line %q", ln)
			}
			if globalEvery, err = strconv.Atoi(fields[1]); err != nil {
				return nil, fmt.Errorf("redundancy: manifest globalevery: %w", err)
			}
		case "domain":
			if len(fields) < 2 {
				return nil, fmt.Errorf("redundancy: manifest domain line %q", ln)
			}
			var members []int
			for _, f := range fields[2:] {
				r, err := strconv.Atoi(f)
				if err != nil {
					return nil, fmt.Errorf("redundancy: manifest domain member: %w", err)
				}
				members = append(members, r)
			}
			groups[fields[1]] = members
		default:
			return nil, fmt.Errorf("redundancy: unknown manifest line %q", ln)
		}
	}
	if ranks < 1 {
		return nil, fmt.Errorf("redundancy: manifest missing ranks")
	}
	if len(groups) == 0 {
		return nil, fmt.Errorf("redundancy: manifest missing domain lines")
	}
	dm, err := cluster.DomainMapFromGroups(ranks, groups)
	if err != nil {
		return nil, err
	}
	return openFileHierarchy(dir, scheme, dm, globalEvery, mpi.QsNet())
}

// openFileHierarchy builds a hierarchy over the file stores under dir:
// the global store in dir/global and rank r's L1 store in
// dir/local/rankNNN.
func openFileHierarchy(dir string, scheme Scheme, domains *cluster.DomainMap, globalEvery int, net mpi.Network) (*Hierarchy, error) {
	global, err := storage.NewFileStore(filepath.Join(dir, "global"))
	if err != nil {
		return nil, err
	}
	var ferr error
	h, err := NewHierarchy(Config{
		Scheme:      scheme,
		Domains:     domains,
		Global:      global,
		GlobalEvery: globalEvery,
		Net:         net,
		NewLocal: func(rank int) storage.Store {
			fs, err := storage.NewFileStore(filepath.Join(dir, "local", fmt.Sprintf("rank%03d", rank)))
			if err != nil {
				ferr = err
				return storage.NewMemStore()
			}
			return fs
		},
	})
	if err != nil {
		return nil, err
	}
	if ferr != nil {
		return nil, ferr
	}
	return h, nil
}
