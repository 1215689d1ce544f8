package ckpt

import (
	"fmt"
	"math/bits"

	"repro/internal/bitset"
	"repro/internal/des"
	"repro/internal/mem"
	"repro/internal/storage"
)

// Options configures a per-rank Checkpointer.
type Options struct {
	// Rank labels segments and store keys.
	Rank int
	// Store receives encoded segments. Required.
	Store storage.Store
	// Sink models the time cost of persisting segments; the zero value
	// selects the paper's SCSI disk model.
	Sink storage.Model
	// FullEvery forces a full checkpoint every N segments (the first is
	// always full). Zero means only the first segment is full.
	FullEvery int
	// StartSeq is the first segment sequence number this checkpointer
	// writes. After a failure, the recovered run's checkpointers must
	// continue above the old chain (StartSeq = recovery line + 1) so
	// LatestConsistentSeq keeps seeing monotone sequences. The first
	// checkpoint a checkpointer takes is always full regardless of
	// StartSeq — it bases a fresh chain.
	StartSeq uint64
	// TrackCow enables copy-on-write accounting: while a segment is
	// draining to the sink, writes to pages captured in that segment
	// are counted as pre-image copies an overlapped implementation
	// would have to take. Checkpointing mid-burst makes this large;
	// checkpointing between bursts makes it almost zero (§6.2).
	TrackCow bool
	// Compress run-length-encodes page payloads; the sink write time is
	// then charged on the compressed volume. Zero-filled and
	// constant-filled pages — ubiquitous in scientific arrays — shrink
	// dramatically (cf. the checkpoint-size optimisations of [18]).
	Compress bool
	// DedupUnchanged skips incremental pages whose content hash equals
	// the last persisted version of the same page — write-protection
	// flags a page dirty even when it is rewritten with identical
	// values; content hashing removes those false deltas. Full
	// checkpoints never skip, so every restore chain stays
	// self-contained.
	DedupUnchanged bool
}

// Result describes one completed checkpoint.
type Result struct {
	Seq   uint64
	Epoch uint64
	Kind  Kind
	Pages uint64
	// Bytes is the encoded segment size persisted to the store.
	Bytes uint64
	// PageBytes is pages x page size — the payload the IB metric counts.
	PageBytes uint64
	// PayloadBytes is the page-data volume after zero elision and
	// compression — what the sink actually absorbs when Compress is on.
	PayloadBytes uint64
	// DedupSkipped counts dirty pages elided for unchanged content.
	DedupSkipped uint64
	// Duration is the modelled sink write time.
	Duration des.Time
	// ExcludedPages counts dirty pages dropped because their region was
	// unmapped before the checkpoint (memory exclusion).
	ExcludedPages uint64
	// SilentDirtyPages/SilentDirtyBytes report the corruption risk of
	// this checkpoint: pages a Direct-mode NIC dirtied behind the
	// write-fault tracker, which an incremental capture therefore
	// omits. A full checkpoint copies current contents regardless, so
	// it reports zero and absorbs the silent set. Nonzero values mean
	// a restore from this segment's chain replays stale data.
	SilentDirtyPages uint64
	SilentDirtyBytes uint64
}

// Stats aggregates a checkpointer's lifetime counters.
type Stats struct {
	Checkpoints   uint64
	FullPages     uint64
	DeltaPages    uint64
	TotalBytes    uint64
	CowCopyBytes  uint64
	ExcludedPages uint64
	// DedupSkippedPages counts dirty pages dropped because their
	// content was unchanged (Options.DedupUnchanged).
	DedupSkippedPages uint64
	// PayloadBytes is the page-data volume actually persisted after
	// zero elision and compression.
	PayloadBytes uint64
	// SilentDirtyBytes accumulates Result.SilentDirtyBytes: the total
	// volume incremental checkpoints silently omitted.
	SilentDirtyBytes uint64
}

// Checkpointer takes full and incremental checkpoints of one address
// space. It owns a dirty log built from write faults, independent of
// (and stackable with) a tracker's.
type Checkpointer struct {
	eng   *des.Engine
	space *mem.AddressSpace
	opts  Options

	// log protects and captures every region it watches: checkpointable
	// data not marked recomputable. A marked region stays in the region
	// table, so a restore recreates it zero-filled.
	log *mem.DirtyLog

	seq           uint64
	epoch         uint64
	took          bool // a first (full, chain-basing) checkpoint was taken
	stats         Stats
	excludedAccum uint64
	hashes        map[uint64]uint64 // page addr → last persisted content hash
	// mapped holds the watched regions of a backed space mapped since the
	// last capture. An incremental captures each whole, as a full capture
	// does, because a freed and re-mapped arena's pages read zero where
	// nothing wrote them: only a record of every page overwrites what an
	// earlier incarnation at the same addresses left in the chain.
	mapped map[*mem.Region]struct{}

	// CoW accounting drain state (TrackCow). The sets are refilled in
	// place by every capture; drainR/drainDS cache the last faulting
	// region's entry, since consecutive faults repeat the region.
	drainUntil des.Time
	drainEnd   des.Event // closeDrain's event at drainUntil
	drainSet   map[*mem.Region]*bitset.Set
	drainR     *mem.Region
	drainDS    *bitset.Set
	cow        func(*mem.Region, uint64, uint64) // cowFault as the log's OnFault value
	drained    func()                            // closeDrain, bound once

	// live and regions are the scratch every capture refills — the
	// space's regions and the segment's region table: the capture reads
	// them and nothing keeps them.
	live    []*mem.Region
	regions []RegionInfo
	// lent is the last segment encoded for a store that only borrows (no
	// storage.OwnedPutter): Put copies what it keeps, so the next capture
	// encodes into the same buffer. A keeping store is given a fresh one.
	lent []byte
}

// NewCheckpointer creates a checkpointer. Call Start to begin capturing
// dirty pages; the first Checkpoint is always a full one.
func NewCheckpointer(eng *des.Engine, space *mem.AddressSpace, opts Options) (*Checkpointer, error) {
	if opts.Store == nil {
		return nil, fmt.Errorf("ckpt: Options.Store is required")
	}
	if opts.Sink == (storage.Model{}) {
		opts.Sink = storage.SCSISink()
	}
	if (opts.Compress || opts.DedupUnchanged) && space.Phantom() {
		return nil, fmt.Errorf("ckpt: compression and dedup need page contents (backed address space)")
	}
	c := &Checkpointer{
		eng:   eng,
		space: space,
		opts:  opts,
		seq:   opts.StartSeq,
		log:   mem.NewDirtyLog(space),
	}
	c.log.OnMap = c.onMap
	if opts.TrackCow {
		c.cow = c.cowFault // installed on the log while a segment drains
		c.drained = c.closeDrain
		c.drainSet = make(map[*mem.Region]*bitset.Set)
	}
	if opts.DedupUnchanged {
		c.hashes = make(map[uint64]uint64)
	}
	return c, nil
}

// Exclude is accepted and ignored: a bounce arena (mem.Bounce) is
// never checkpointed by its kind, and recomputable data is marked on its
// region (ckptspec.Spec.Apply). Kept only for the frozen benchmark/
// harness; ROADMAP's "Benchmark v2" item deletes it.
func (c *Checkpointer) Exclude(*mem.Region) {}

// Start opens the checkpointer's dirty log: it protects all data memory,
// and the log stacks over any other log open on the space.
func (c *Checkpointer) Start() {
	if c.log.IsOpen() {
		panic("ckpt: already started")
	}
	c.log.Open()
}

// Stop closes the dirty log, which unprotects memory.
func (c *Checkpointer) Stop() { c.log.Close() }

// Stats returns a copy of the lifetime counters.
func (c *Checkpointer) Stats() Stats { return c.stats }

// Seq returns the next segment sequence number.
func (c *Checkpointer) Seq() uint64 { return c.seq }

// Rank returns the rank this checkpointer labels its segments with.
func (c *Checkpointer) Rank() int { return c.opts.Rank }

// Store returns the stable-storage backend segments persist to.
func (c *Checkpointer) Store() storage.Store { return c.opts.Store }

// Space returns the address space this checkpointer protects.
func (c *Checkpointer) Space() *mem.AddressSpace { return c.space }

// Rebase realigns the checkpointer after a failed persist: the next
// checkpoint is written at seq and is forced full, basing a fresh
// self-contained chain. A Checkpoint that failed at the store has
// already consumed its dirty set, so continuing incrementally would
// silently drop pages from the chain — re-basing is the only safe
// resumption.
func (c *Checkpointer) Rebase(seq uint64) {
	c.seq = seq
	c.took = false
}

// cowFault is the CoW accounting (TrackCow): a write to a page captured
// by a still-draining segment forces a pre-image copy in an overlapped
// implementation. It is the log's fault observer from a capture until
// the segment has drained, and it takes the faulting pages m of bitmap
// word w of r a word at a time. A fault is in the window when the clock
// is before drainUntil. A fault a settled write takes (mem's settle
// hook, des.Event.Settle) runs with the clock at the last firing it
// stands for, which is on its own side of drainUntil because the window
// closes with an event there (closeDrain), and that event settles first.
func (c *Checkpointer) cowFault(r *mem.Region, w, m uint64) {
	if c.eng.Now() >= c.drainUntil {
		c.log.OnFault = nil
		return
	}
	if r != c.drainR {
		c.drainR, c.drainDS = r, c.drainSet[r]
	}
	if c.drainDS == nil {
		return
	}
	if hit := c.drainDS.Word(w) & m; hit != 0 {
		c.drainDS.AndNotWord(w, hit) // copy taken once per page per drain
		c.stats.CowCopyBytes += uint64(bits.OnesCount64(hit)) * c.space.PageSize()
	}
}

// closeDrain is the drain window's end, an event at drainUntil. Reading
// the log settles the space (mem.AddressSpace.SetSettle): held writes
// due before drainUntil fault inside the window, those due at its instant
// outside it, as they would have one by one. Then the observer goes. One
// event is pending at a time: a capture whose window ends later leaves
// it, and it moves itself on to the new end.
func (c *Checkpointer) closeDrain() {
	if c.eng.Now() < c.drainUntil {
		c.drainEnd = c.eng.Schedule(c.drainUntil, c.drained)
		return
	}
	c.log.Faults()
	c.log.OnFault = nil
}

// fillDrain makes the pages the log holds now the drain set of the
// segment being captured, refilling the sets of the last drain in place.
func (c *Checkpointer) fillDrain(live []*mem.Region) {
	c.log.OnFault = c.cow
	c.drainR, c.drainDS = nil, nil
	for _, ds := range c.drainSet {
		ds.Clear()
	}
	for _, r := range live {
		if rs := c.log.Pages(r); rs != nil {
			ds := c.drainSet[r]
			if ds == nil {
				ds = bitset.New(r.Pages())
				c.drainSet[r] = ds
			}
			ds.UnionWith(rs)
		}
	}
}

// onMap accounts memory exclusion — dirty pages dropped with an
// unmapped region are reported by the next checkpoint — and notes a
// watched backed region mapped since the last capture (mapped).
func (c *Checkpointer) onMap(r *mem.Region, mapped bool, pages uint64) {
	switch {
	case !mapped:
		c.excludedAccum += pages
		delete(c.drainSet, r)
		c.drainR, c.drainDS = nil, nil
		delete(c.mapped, r)
	case !c.space.Phantom() && c.log.Watches(r):
		if c.mapped == nil {
			c.mapped = make(map[*mem.Region]struct{})
		}
		c.mapped[r] = struct{}{}
	}
}

// regionTable appends the segment's region table to dst: the
// checkpointable regions among live, recomputable ones included.
func (c *Checkpointer) regionTable(dst []RegionInfo, live []*mem.Region) []RegionInfo {
	for _, r := range live {
		if r.Kind().Checkpointable() {
			dst = append(dst, RegionInfo{Start: r.Start(), Size: r.Size(), Kind: r.Kind()})
		}
	}
	return dst
}

// Checkpoint captures a segment — full when due, incremental otherwise —
// persists it to the store and re-protects memory. It returns the
// result including the modelled sink write time.
func (c *Checkpointer) Checkpoint() (Result, error) {
	if !c.log.IsOpen() {
		return Result{}, fmt.Errorf("ckpt: checkpointer not started")
	}
	kind := Incremental
	if !c.took || (c.opts.FullEvery > 0 && (c.seq-c.opts.StartSeq)%uint64(c.opts.FullEvery) == 0) {
		kind = Full
		c.epoch = c.seq
	}
	c.took = true
	// Regions are walked in address order — never the log's map order,
	// which would make the stored bytes differ between identical runs.
	c.live = c.space.AppendRegions(c.live[:0])
	live := c.live
	c.regions = c.regionTable(c.regions[:0], live)
	hdr := Segment{
		Rank:        c.opts.Rank,
		Seq:         c.seq,
		Epoch:       c.epoch,
		Kind:        kind,
		ContentFree: c.space.Phantom(),
		PageSize:    c.space.PageSize(),
		TakenAt:     c.eng.Now(),
		Regions:     c.regions,
	}
	ps := c.space.PageSize()
	// The size pass counts the candidate pages and, content-free, the
	// runs the writer will make of them by its own rule, so a
	// content-free or raw buffer is exact.
	var maxPages uint64
	runs := runTail{ps: ps}
	for _, r := range live {
		if !c.log.Watches(r) {
			continue
		}
		rs := c.log.Pages(r)
		switch {
		case c.whole(kind, r):
			maxPages += r.Pages()
			if hdr.ContentFree && r.Pages() > 0 {
				runs.extend(r.Start(), r.Pages())
			}
		case rs == nil:
		case hdr.ContentFree:
			for wi, n := uint64(0), (r.Pages()+63)/64; wi < n; wi++ {
				if m := rs.Word(wi); m != 0 {
					maxPages += uint64(bits.OnesCount64(m))
					runs.word(r.PageAddr(wi*64), m)
				}
			}
		default:
			maxPages += rs.Count()
		}
	}
	recCap := maxPages * recordCap(c.opts.Compress, ps)
	if hdr.ContentFree {
		recCap = runLen * runs.runs
	}
	// A borrowing store is lent the checkpointer's one encode buffer; a
	// keeping store gets a fresh one to keep.
	_, keeps := c.opts.Store.(storage.OwnedPutter)
	var dst []byte
	if !keeps {
		dst = c.lent[:0]
	}
	// The bound also reserves the integrity envelope's room, so a sealing
	// store seals the given-away segment where it lies.
	w := newSegWriter(dst, &hdr, recCap+storage.SealRoom, c.opts.Compress)
	var silentPages uint64
	for _, r := range live {
		if !c.log.Watches(r) {
			continue
		}
		// Content-free records are page runs, so those are written
		// straight from the region's extent (full) or its dirty set, a
		// bitmap word at a time (incremental).
		if c.whole(kind, r) {
			if w.contentFree {
				w.addrRun(r.Start(), r.Pages())
			} else {
				for idx := uint64(0); idx < r.Pages(); idx++ {
					c.capturePage(&w, kind, r, idx)
				}
			}
			// A full capture copies current contents, DMA'd or not —
			// the silent set is absorbed into this self-contained base.
			r.ClearSilent()
			continue
		}
		// Pages the NIC dirtied without faulting are absent from
		// the log: this capture omits them, and a restore through it
		// replays their stale pre-DMA contents. Count them as the
		// segment's corruption risk.
		silentPages += r.SilentPages()
		rs := c.log.Pages(r)
		switch {
		case rs == nil:
		case w.contentFree:
			for wi, n := uint64(0), (r.Pages()+63)/64; wi < n; wi++ {
				if m := rs.Word(wi); m != 0 {
					w.addrWord(r.PageAddr(wi*64), m)
				}
			}
		default:
			for idx, ok := rs.NextSet(0); ok; idx, ok = rs.NextSet(idx + 1) {
				c.capturePage(&w, kind, r, idx)
			}
		}
	}
	// CoW drain window for the next segment's accounting.
	if c.opts.TrackCow {
		c.fillDrain(live)
	}
	// Reset dirty state and re-protect: the next delta starts now.
	c.log.Reset()
	clear(c.mapped)

	enc := w.finish()
	dedupSkipped := maxPages - w.pages // every candidate page is written or elided
	pageBytes := w.pages * ps
	// The sink absorbs the raw page volume, or the compressed payload
	// when compression is on (the paper's IB metric is the former).
	payload := pageBytes
	if c.opts.Compress {
		payload = w.payload
	}
	key := SegmentKey(c.opts.Rank, c.seq)
	// A keeping store's enc is fresh and dropped here, so the store may
	// keep it — but only when the writer's size bound was exact, leaving
	// just the envelope's room: zero-elided, RLE and dedup segments come
	// out shorter, and the store would retain the slack for the line's
	// life. A borrowing store's enc is lent and encodes the next capture.
	var err error
	switch {
	case !keeps:
		c.lent = enc
		err = c.opts.Store.Put(key, enc)
	case len(enc)+storage.SealRoom == cap(enc):
		err = storage.PutOwned(c.opts.Store, key, enc)
	default:
		err = c.opts.Store.Put(key, enc)
	}
	if err != nil {
		return Result{}, fmt.Errorf("ckpt: persist %s: %w", key, err)
	}
	res := Result{
		Seq:           c.seq,
		Epoch:         c.epoch,
		Kind:          kind,
		Pages:         w.pages,
		Bytes:         uint64(len(enc)),
		PageBytes:     pageBytes,
		PayloadBytes:  payload,
		DedupSkipped:  dedupSkipped,
		Duration:      c.opts.Sink.WriteTime(payload),
		ExcludedPages: c.excludedAccum,

		SilentDirtyPages: silentPages,
		SilentDirtyBytes: silentPages * ps,
	}
	if c.opts.TrackCow {
		c.drainUntil = c.eng.Now() + res.Duration
		if !c.drainEnd.Pending() || c.drainEnd.Time() > c.drainUntil {
			c.drainEnd.Cancel()
			c.drainEnd = c.eng.Schedule(c.drainUntil, c.drained)
		}
	}
	c.excludedAccum = 0
	c.seq++
	c.stats.Checkpoints++
	if kind == Full {
		c.stats.FullPages += res.Pages
	} else {
		c.stats.DeltaPages += res.Pages
	}
	c.stats.TotalBytes += res.Bytes
	c.stats.ExcludedPages += res.ExcludedPages
	c.stats.DedupSkippedPages += dedupSkipped
	c.stats.PayloadBytes += payload
	c.stats.SilentDirtyBytes += res.SilentDirtyBytes
	return res, nil
}

// whole reports whether a capture of the given kind records every page
// of r: a full one does, and so does an incremental one of a region
// mapped since the last capture (mapped).
func (c *Checkpointer) whole(kind Kind, r *mem.Region) bool {
	if kind == Full {
		return true
	}
	_, fresh := c.mapped[r]
	return fresh
}

// capturePage streams page idx of r into w, reading the live page in
// place, unless content dedup elides it.
func (c *Checkpointer) capturePage(w *segWriter, kind Kind, r *mem.Region, idx uint64) {
	addr := r.PageAddr(idx)
	var data []byte
	if !w.contentFree {
		data = r.PeekPage(idx)
		if c.skipUnchanged(kind, addr, data) {
			return
		}
	}
	w.page(addr, data)
}

// skipUnchanged implements content deduplication: it records the page's
// content hash and reports whether an incremental capture may elide the
// page because its content is unchanged since it was last persisted.
// Full checkpoints never skip — every chain base is self-contained.
func (c *Checkpointer) skipUnchanged(kind Kind, addr uint64, data []byte) bool {
	if c.hashes == nil {
		return false
	}
	h := pageHash(data, c.space.PageSize())
	prev, seen := c.hashes[addr]
	c.hashes[addr] = h
	return kind == Incremental && seen && prev == h
}

// loadSegment fetches one segment of rank and decodes it into seg
// (decodeSegment), returning it with its encoded size: the bytes a
// restore reads for it. A fetch failure keeps the storage tier's typed
// cause (ErrNotFound, ErrCorrupt, ErrUnavailable, ErrTransient); bytes
// that fetched but do not decode are typed storage.ErrCorrupt, so callers
// can tell a missing segment from a rotten one with errors.Is alone. The
// bytes are what Get lends: raw page records alias what the store holds
// and are read-only, as every reader here (verify, restore) treats them.
func loadSegment(store storage.Store, rank int, seq uint64, seg *Segment) (*Segment, uint64, error) {
	data, err := store.Get(SegmentKey(rank, seq))
	if err != nil {
		return nil, 0, err
	}
	seg, err = decodeSegment(seg, data)
	if err != nil {
		return nil, 0, fmt.Errorf("ckpt: segment rank %d seq %d undecodable (%v): %w", rank, seq, err, storage.ErrCorrupt)
	}
	return seg, uint64(len(data)), nil
}

// replayChain is the one page-replay body: walkChain with a visitor
// that, at the chain's base, makes a backed address space with the
// target's page size, recreates the target's region layout in it and
// has it inherit dead's slabs (mem.AddressSpace.Inherit; dead is the
// space the restore replaces, or nil), then replays each segment's pages
// from the base forward. A recreated region of a dead region's start, size and
// kind takes that region's slab, cleared, and every page record of the
// chain overwrites its page, so the restored bytes are a fresh space's.
// It skips pages whose regions no longer exist at the target — rolled-
// forward memory exclusion — and pages outside every region it
// recreated, such as the stack's. So on a chain VerifyChain rejects it
// returns VerifyChain's error, and it replays no segment the walk has not
// proven; the space it made before the walk failed, if any, is returned
// with the error, holding what it inherited, for the next restore to
// inherit. It returns the space and the chain's encoded bytes, the sum
// ChainVolume reports for the same chain.
func replayChain(store storage.Store, rank int, targetSeq uint64, dead *mem.AddressSpace) (*mem.AddressSpace, uint64, error) {
	var sp *mem.AddressSpace
	var read uint64
	var zero []byte
	err := walkChain(store, rank, targetSeq, func(target, seg *Segment, size uint64) error {
		read += size
		if seg.Seq == target.Epoch {
			sp = mem.NewAddressSpace(mem.Config{PageSize: target.PageSize})
			for _, ri := range target.Regions {
				if _, err := sp.MapAt(ri.Start, ri.Size, ri.Kind); err != nil {
					return fmt.Errorf("ckpt: recreate region: %w", err)
				}
			}
			sp.Inherit(dead)
		}
		for _, p := range seg.Pages {
			r := sp.Find(p.Addr)
			if r == nil || !r.Kind().Checkpointable() {
				continue // region gone by target time (excluded), or the stack
			}
			data := p.Data
			if data == nil { // an elided zero page overwrites what replay put there
				if zero == nil {
					zero = make([]byte, sp.PageSize())
				}
				data = zero
			}
			r.LoadPage(r.PageIndex(p.Addr), data)
		}
		return nil
	})
	if err != nil {
		return sp, 0, err
	}
	return sp, read, nil
}
