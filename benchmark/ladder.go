package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/autonomic"
	"repro/internal/bitset"
	"repro/internal/ckpt"
	"repro/internal/ckptstore"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/mpi"
	"repro/internal/redundancy"
	"repro/internal/storage"
	"repro/internal/tracker"
	"repro/internal/workload"
)

// The ladder times each layer's exported functions in isolation, one
// rung per layer a simulated page write crosses, on inputs shaped like
// the workload's own: the artefacts an operation leaves in its store,
// the application's footprint and page size, the supervised grid. A
// workload climbs only the rungs of layers its operation exercises; the
// catalogue reports the others as idle.

// rungFloor is how long a rung repeats its call before dividing: long
// enough that timer granularity and a stray GC cycle stay below a
// percent, short enough that a whole ladder fits in a few seconds.
const rungFloor = 60 * time.Millisecond

// perCall repeats fn until rungFloor has elapsed (at least twice, the
// first call untimed as warm-up) and returns the mean nanoseconds per
// call.
func perCall(fn func()) float64 {
	fn()
	var calls int
	t0 := time.Now()
	for {
		fn()
		calls++
		if d := time.Since(t0); d >= rungFloor {
			return float64(d.Nanoseconds()) / float64(calls)
		}
	}
}

// mbps converts bytes moved per call and ns per call to MB/s.
func mbps(bytes int, ns float64) float64 { return float64(bytes) / 1e6 / (ns / 1e9) }

// sink defeats dead-code elimination of rung bodies.
var sink uint64

type ladder struct {
	out  map[string]float64
	seed uint64
	// opP50 is the run's bare op_ms_p50, for rungs reported as a
	// difference from it.
	opP50 float64
}

func (l *ladder) set(name string, v float64) { l.out[name] = v }

// ---- bitset ----

// bitsetRungs times dirty-bitmap word ops on a set the size of the
// application's page count, half full.
func (l *ladder) bitsetRungs(pages uint64) {
	var s bitset.Set
	l.set("bitset.add_ns", perCall(func() {
		s.Clear()
		for i := uint64(0); i < pages; i++ {
			s.Add(i)
		}
	})/float64(pages))

	rng := rand.New(rand.NewPCG(l.seed, 0xB175E7))
	var a, b bitset.Set
	for i := uint64(0); i < pages; i++ {
		if rng.Uint64()&1 == 0 {
			a.Add(i)
		}
		if rng.Uint64()&1 == 0 {
			b.Add(i)
		}
	}
	l.set("bitset.sweep_ns_per_set_bit", perCall(func() {
		for i, ok := a.NextSet(0); ok; i, ok = a.NextSet(i + 1) {
			sink += i
		}
	})/float64(a.Len()))
	c := a.Clone()
	l.set("bitset.union_ns_per_word", perCall(func() { c.UnionWith(&b) })/float64((pages+63)/64))
}

// ---- mem ----

// memPhantomRungs sweeps a phantom region of the application's
// footprint: cold with every page write-protected (one fault each, the
// tracker's cost), hot with none.
func (l *ladder) memPhantomRungs(footprint, pageSize uint64) error {
	s := mem.NewAddressSpace(mem.Config{PageSize: pageSize, Phantom: true})
	r, err := s.Mmap(footprint / pageSize * pageSize)
	if err != nil {
		return err
	}
	s.SetFaultHandler(func(f mem.Fault) { f.Region.SetProtected(f.Page, false) })
	var werr error
	cold := perCall(func() {
		r.ProtectAll()
		if err := s.WriteRange(r.Start(), r.Size()); err != nil {
			werr = err
		}
	})
	hot := perCall(func() {
		if err := s.WriteRange(r.Start(), r.Size()); err != nil {
			werr = err
		}
	})
	l.set("mem.write_range_cold_ns_per_page", cold/float64(r.Pages()))
	l.set("mem.write_range_hot_ns_per_page", hot/float64(r.Pages()))
	return werr
}

// memBackedRungs writes and digests content-carrying pages at the
// supervised grid's per-rank size.
func (l *ladder) memBackedRungs(cfg autonomic.Config) error {
	s := mem.NewAddressSpace(mem.Config{PageSize: 4096})
	bytes := uint64(cfg.Nx*(cfg.RowsPerRank+2)) * 8
	r, err := s.Mmap((bytes + 4095) / 4096 * 4096)
	if err != nil {
		return err
	}
	buf := make([]byte, 64*1024)
	for i := range buf {
		buf[i] = byte(i)
	}
	var werr error
	ns := perCall(func() {
		for off := uint64(0); off+uint64(len(buf)) <= r.Size(); off += uint64(len(buf)) {
			if err := s.Write(r.Start()+off, buf); err != nil {
				werr = err
			}
		}
	})
	written := int(r.Size() / uint64(len(buf)) * uint64(len(buf)))
	l.set("mem.backed_write_MBps", mbps(written, ns))
	l.set("mem.digest_MBps", mbps(int(r.Size()), perCall(func() { sink += s.Digest(nil) })))
	return werr
}

// ---- workload, tracker ----

// measureWindow is the virtual length of core.Measure's measured window
// at the paper's defaults: three periods, at least six whole timeslices.
func measureWindow(spec workload.Spec, ranks int) des.Time {
	period := spec.PeriodAt(ranks)
	dur := 3 * period
	if dur < 6*des.Second {
		dur = (6*des.Second + period - 1) / period * period
	}
	return dur / des.Second * des.Second
}

// runnerWindow builds a runner for app, advances it to iteration 0 and
// returns it with the virtual length of the window the operation runs.
func runnerWindow(app string, ranks, shards int, seed uint64, window func(workload.Spec, int) des.Time) (*workload.Runner, des.Time, error) {
	spec, err := workload.ByName(app)
	if err != nil {
		return nil, 0, err
	}
	r, err := workload.New(spec, workload.Config{Ranks: ranks, Seed: seed, Shards: shards})
	if err != nil {
		return nil, 0, err
	}
	if err := toIterZero(r); err != nil {
		return nil, 0, err
	}
	return r, window(spec, ranks), nil
}

// toIterZero runs the bulk of initialisation, then steps event by event
// until rank 0 enters iteration 0 — the boundary core.Measure and
// core.Protect both start from.
func toIterZero(r *workload.Runner) error {
	r.Run(r.InitTail())
	for r.IterZero() == 0 && r.Eng.Step() {
	}
	if r.IterZero() == 0 {
		return fmt.Errorf("%s never reached iteration 0", r.Spec.Name)
	}
	return nil
}

// workloadRungs times workload.New and the bare runner — no tracker, no
// checkpointer: the des+mpi+mem floor under the operation — over the
// same applications and rank count the operation uses.
func (l *ladder) workloadRungs(apps []string, ranks, shards int, window func(workload.Spec, int) des.Time) error {
	spec, err := workload.ByName(apps[0])
	if err != nil {
		return err
	}
	var news []float64
	for i := 0; i < 3; i++ {
		var nerr error
		d := timeIt(func() {
			_, nerr = workload.New(spec, workload.Config{Ranks: ranks, Seed: l.seed, Shards: shards})
		})
		if nerr != nil {
			return nerr
		}
		news = append(news, ms(d))
	}
	l.set("workload.new_ms", median(news))

	var total time.Duration
	for _, app := range apps {
		var rerr error
		total += timeIt(func() {
			r, span, err := runnerWindow(app, ranks, shards, l.seed, window)
			if err != nil {
				rerr = err
				return
			}
			r.Run(r.Now() + span)
		})
		if rerr != nil {
			return rerr
		}
	}
	l.set("workload.runner_ms_per_op", ms(total))
	return nil
}

// trackerRung runs the same runner window with and without a tracker on
// rank 0 and reports the tracker's share of the instrumented time.
func (l *ladder) trackerRung(app string, ranks, shards int) error {
	var with, without []float64
	for i := 0; i < 3; i++ {
		for _, attach := range []bool{false, true} {
			r, window, err := runnerWindow(app, ranks, shards, l.seed, measureWindow)
			if err != nil {
				return err
			}
			if attach {
				tk, err := tracker.New(r.EngineFor(0), r.Space(0), tracker.Options{Timeslice: des.Second})
				if err != nil {
					return err
				}
				tk.AttachRank(r.World, 0)
				tk.Start()
			}
			d := ms(timeIt(func() { r.Run(r.Now() + window) }))
			if attach {
				with = append(with, d)
			} else {
				without = append(without, d)
			}
		}
	}
	w := median(with)
	l.set("tracker.attach_cost_pct", (w-median(without))/w*100)
	return nil
}

// ---- des ----

func (l *ladder) desScheduleRung() {
	const n = 1 << 20
	noop := func() {}
	l.set("des.schedule_ns_per_event", perCall(func() {
		eng := des.NewEngine()
		for i := 0; i < n; i++ {
			eng.Schedule(des.Time(i), noop)
		}
		eng.Run(des.MaxTime)
		sink += eng.Fired()
	})/n)
}

// desShardRungs times the group's epoch barrier and cross-shard post.
// Every shard carries one self-rescheduling comm event per lookahead
// step, so each epoch fires exactly one event per shard and the group's
// critical path counts the epochs.
func (l *ladder) desShardRungs(shards int) {
	const lookahead = des.Microsecond
	drive := func(epochs, postsPerEvent int) (elapsed time.Duration, crit, posts uint64) {
		g := des.NewGroup(shards)
		g.DeclareLookahead(lookahead)
		end := des.Time(epochs) * lookahead
		noop := func() {}
		sent := make([]uint64, shards)
		for s := 0; s < shards; s++ {
			s := s
			eng, next := g.Shard(s), g.Shard((s+1)%shards)
			var tick func()
			tick = func() {
				for p := 0; p < postsPerEvent; p++ {
					eng.PostTo(next, eng.Now()+lookahead, noop)
					sent[s]++
				}
				if eng.Now()+lookahead < end {
					eng.After(lookahead, tick)
				}
			}
			eng.Schedule(0, tick)
		}
		elapsed = timeIt(func() { g.Control().Run(des.MaxTime) })
		for _, n := range sent {
			posts += n
		}
		return elapsed, g.CriticalPathEvents(), posts
	}
	drive(2000, 0) // warm-up
	d, crit, _ := drive(40000, 0)
	l.set("des.epoch_ns", float64(d.Nanoseconds())/float64(crit))
	d, _, posts := drive(4000, 64)
	l.set("des.post_ns_per_msg", float64(d.Nanoseconds())/float64(posts))
}

// ---- mpi ----

// newWorld builds an n-rank phantom world on the sequential engine, or
// spread over a shard group when shards > 1, and returns the engine that
// drives it.
func newWorld(n, shards int) (*des.Engine, *mpi.World, error) {
	spaces := make([]*mem.AddressSpace, n)
	for i := range spaces {
		spaces[i] = mem.NewAddressSpace(mem.Config{Phantom: true})
	}
	if shards <= 1 {
		eng := des.NewEngine()
		w, err := mpi.NewWorld(eng, mpi.QsNet(), mpi.Bounce, spaces)
		return eng, w, err
	}
	g := des.NewGroup(min(shards, n))
	engs := make([]*des.Engine, n)
	for i := range engs {
		engs[i] = g.Shard(i % g.Shards())
	}
	w, err := mpi.NewShardedWorld(engs, mpi.QsNet(), mpi.Bounce, spaces)
	return g.Control(), w, err
}

func (l *ladder) mpiRungs(shards int) error {
	eng, w, err := newWorld(2, shards)
	if err != nil {
		return err
	}
	const rounds = 256
	var incomplete bool
	pingpong := perCall(func() {
		left := rounds
		var serve, bounce func(mpi.Message)
		serve = func(mpi.Message) {
			w.Rank(1).Recv(0, 0, 0, serve)
			w.Rank(1).Send(0, 1, 64*1024, nil)
		}
		bounce = func(mpi.Message) {
			left--
			if left > 0 {
				w.Rank(0).Recv(1, 1, 0, bounce)
				w.Rank(0).Send(1, 0, 64*1024, nil)
			}
		}
		w.Rank(1).Recv(0, 0, 0, serve)
		w.Rank(0).Recv(1, 1, 0, bounce)
		w.Rank(0).Send(1, 0, 64*1024, nil)
		eng.Run(des.MaxTime)
		if left != 0 {
			incomplete = true
		}
	})
	if incomplete {
		return fmt.Errorf("mpi ping-pong did not complete")
	}
	l.set("mpi.send_ns_per_msg", pingpong/(2*rounds))

	eng, w, err = newWorld(64, shards)
	if err != nil {
		return err
	}
	// Completions fire on each rank's own shard worker in a sharded
	// world, hence the atomic.
	var done atomic.Int64
	l.set("mpi.allreduce_ns_per_call", perCall(func() {
		done.Store(0)
		for i := 0; i < w.Size(); i++ {
			w.Rank(i).AllReduce(8, 0, func() { done.Add(1) })
		}
		eng.Run(des.MaxTime)
		if int(done.Load()) != w.Size() {
			incomplete = true
		}
	}))
	if incomplete {
		return fmt.Errorf("mpi allreduce did not complete")
	}
	return nil
}

// ---- kernels ----

func (l *ladder) kernelRung(cfg autonomic.Config) error {
	space := mem.NewAddressSpace(mem.Config{PageSize: 4096})
	ny := cfg.RowsPerRank + 2
	st, err := kernels.NewStencil2D(space, cfg.Nx, ny, cfg.Boundary)
	if err != nil {
		return err
	}
	var serr error
	ns := perCall(func() {
		if err := st.Step(); err != nil {
			serr = err
		}
	})
	l.set("kernels.stencil_ns_per_cell", ns/float64(cfg.Nx*ny))
	return serr
}

// ---- ckpt, storage ----

// artefacts are the encoded segments one operation left in a plain
// store, in key order.
type artefacts struct {
	store storage.Store
	ranks int
	keys  []string
	data  [][]byte
	bytes int
}

func collectArtefacts(store storage.Store, ranks int) (*artefacts, error) {
	keys, err := store.Keys()
	if err != nil {
		return nil, err
	}
	a := &artefacts{store: store, ranks: ranks}
	for _, k := range keys {
		var rank int
		var seq uint64
		if !ckpt.ParseSegmentKey(k, &rank, &seq) {
			continue
		}
		d, err := store.Get(k)
		if err != nil {
			return nil, err
		}
		a.keys = append(a.keys, k)
		a.data = append(a.data, d)
		a.bytes += len(d)
	}
	if len(a.data) == 0 {
		return nil, fmt.Errorf("the operation left no segment behind")
	}
	return a, nil
}

// encodeRungs re-encodes every artefact segment, and seals and opens
// its bytes with the integrity envelope.
func (l *ladder) encodeRungs(a *artefacts) error {
	segs := make([]*ckpt.Segment, len(a.data))
	for i, d := range a.data {
		s, err := ckpt.DecodeSegment(d)
		if err != nil {
			return fmt.Errorf("%s: %w", a.keys[i], err)
		}
		segs[i] = s
	}
	l.set("ckpt.encode_MBps", mbps(a.bytes, perCall(func() {
		for _, s := range segs {
			sink += uint64(len(s.Encode()))
		}
	})))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, s := range segs {
		sink += uint64(len(s.Encode()))
	}
	runtime.ReadMemStats(&m1)
	l.set("ckpt.allocs_per_segment_encode", float64(m1.Mallocs-m0.Mallocs)/float64(len(segs)))

	sealed := make([][]byte, len(a.data))
	l.set("storage.seal_MBps", mbps(a.bytes, perCall(func() {
		for i, d := range a.data {
			sealed[i] = storage.Seal(d)
		}
	})))
	var oerr error
	l.set("storage.open_MBps", mbps(a.bytes, perCall(func() {
		for _, f := range sealed {
			d, err := storage.Open(f)
			if err != nil {
				oerr = err
			}
			sink += uint64(len(d))
		}
	})))
	return oerr
}

// readRungs decodes every artefact segment and verifies and restores
// the newest line the store can prove.
func (l *ladder) readRungs(a *artefacts) error {
	var derr error
	l.set("ckpt.decode_MBps", mbps(a.bytes, perCall(func() {
		for _, d := range a.data {
			s, err := ckpt.DecodeSegment(d)
			if err != nil {
				derr = err
				continue
			}
			sink += s.Seq
		}
	})))
	if derr != nil {
		return derr
	}
	seq, ok, err := ckpt.LatestVerifiableSeq(a.store, a.ranks)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("no verifiable line among the artefacts")
	}
	var verr error
	l.set("ckpt.verify_line_ms", perCall(func() {
		if err := ckpt.VerifyLine(a.store, a.ranks, seq); err != nil {
			verr = err
		}
	})/1e6)
	if verr != nil {
		return verr
	}
	var chain uint64
	for r := 0; r < a.ranks; r++ {
		v, err := ckpt.ChainVolume(a.store, r, seq)
		if err != nil {
			return err
		}
		chain += v
	}
	restore := perCall(func() {
		spaces, err := ckpt.RestoreAll(a.store, a.ranks, seq)
		if err != nil {
			verr = err
		}
		sink += uint64(len(spaces))
	})
	l.set("ckpt.restore_all_ms", restore/1e6)
	l.set("ckpt.restore_MBps", mbps(int(chain), restore))
	return verr
}

// globalCheckpointRung drives Coordinator.GlobalCheckpoint directly on
// a runner set up the way core.Protect sets its own up, one line per
// interval, and reports the median host time of a line.
func (l *ladder) globalCheckpointRung(cfg core.ProtectConfig) error {
	spec, err := workload.ByName(cfg.App)
	if err != nil {
		return err
	}
	r, err := workload.New(spec, workload.Config{Ranks: cfg.Ranks, Seed: cfg.Seed})
	if err != nil {
		return err
	}
	if err := toIterZero(r); err != nil {
		return err
	}
	store := storage.NewMemStore()
	var cps []*ckpt.Checkpointer
	for i := 0; i < cfg.Ranks; i++ {
		c, err := ckpt.NewCheckpointer(r.EngineFor(i), r.Space(i), ckpt.Options{
			Rank: i, Store: store, FullEvery: cfg.FullEvery, TrackCow: cfg.TrackCow,
		})
		if err != nil {
			return err
		}
		c.Exclude(r.World.BounceRegion(i))
		c.Start()
		cps = append(cps, c)
	}
	co, err := ckpt.NewCoordinator(r.Eng, cps)
	if err != nil {
		return err
	}
	var lines []float64
	for i := 0; i < 16; i++ {
		r.Run(r.Now() + cfg.Interval)
		var cerr error
		d := timeIt(func() { _, cerr = co.GlobalCheckpoint() })
		if cerr != nil {
			return cerr
		}
		lines = append(lines, ms(d))
	}
	l.set("ckpt.global_checkpoint_ms_p50", median(lines))
	return nil
}

// ---- redundancy ----

// line is one coordinated checkpoint line: every rank's encoded segment.
type line struct {
	seq  uint64
	segs [][]byte // by rank
}

// fullLines groups artefacts into lines that hold all ranks, ascending.
func fullLines(a *artefacts) []line {
	bySeq := make(map[uint64][][]byte)
	for i, k := range a.keys {
		var rank int
		var seq uint64
		ckpt.ParseSegmentKey(k, &rank, &seq)
		if bySeq[seq] == nil {
			bySeq[seq] = make([][]byte, a.ranks)
		}
		if rank < a.ranks {
			bySeq[seq][rank] = a.data[i]
		}
	}
	var out []line
	for seq, segs := range bySeq {
		complete := true
		for _, s := range segs {
			if s == nil {
				complete = false
			}
		}
		if complete {
			out = append(out, line{seq: seq, segs: segs})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

func (l *ladder) redundancyRungs(a *artefacts, ml *autonomic.MultiLevelOptions) error {
	lines := fullLines(a)
	if len(lines) == 0 {
		return fmt.Errorf("no complete line among the artefacts")
	}
	k, m := ml.Scheme.K, ml.Scheme.M

	// Codec rungs on the first line's first parity group worth of
	// segments, padded to one length as EncodeLine pads them.
	shardLen := 0
	for _, s := range lines[0].segs[:k] {
		shardLen = max(shardLen, len(s))
	}
	data := make([][]byte, k)
	for i := range data {
		data[i] = make([]byte, shardLen)
		copy(data[i], lines[0].segs[i])
	}
	rs, err := redundancy.NewCodec(ml.Scheme)
	if err != nil {
		return err
	}
	var cerr error
	var parity [][]byte
	l.set("redundancy.rs_encode_MBps", mbps(k*shardLen, perCall(func() {
		p, err := rs.Encode(data)
		if err != nil {
			cerr = err
		}
		parity = p
	})))
	if cerr != nil {
		return cerr
	}
	all := append(append([][]byte(nil), data...), parity...)
	l.set("redundancy.rs_rebuild_MBps", mbps(m*shardLen, perCall(func() {
		work := append([][]byte(nil), all...)
		for i := 0; i < m; i++ {
			work[i] = nil
		}
		if err := rs.Reconstruct(work); err != nil {
			cerr = err
		}
	})))
	xor, err := redundancy.NewCodec(redundancy.Scheme{Kind: redundancy.XOR, K: k, M: 1})
	if err != nil {
		return err
	}
	l.set("redundancy.xor_encode_MBps", mbps(k*shardLen, perCall(func() {
		if _, err := xor.Encode(data); err != nil {
			cerr = err
		}
	})))

	frame := &redundancy.ParityFrame{Seq: lines[0].seq, Shard: k, K: k, M: m, Payload: parity[0]}
	for i := 0; i < k; i++ {
		seg := lines[0].segs[i]
		frame.Members = append(frame.Members, redundancy.MemberRef{Rank: i, Length: uint32(len(seg)), CRC: redundancy.SegmentCRC(seg)})
	}
	var framed []byte
	l.set("redundancy.frame_encode_MBps", mbps(shardLen, perCall(func() {
		b, err := redundancy.EncodeParityFrame(frame)
		if err != nil {
			cerr = err
		}
		framed = b
	})))
	if cerr != nil {
		return cerr
	}
	l.set("redundancy.frame_parse_MBps", mbps(len(framed), perCall(func() {
		if _, err := redundancy.ParseParityFrame(framed); err != nil {
			cerr = err
		}
	})))
	if cerr != nil {
		return cerr
	}

	// Hierarchy rungs: place every line on the rank-local stores the way
	// the checkpointers do, parity-protect it, then lose rank 0 and read
	// its segments back through the recovery view.
	h, err := redundancy.NewHierarchy(redundancy.Config{
		Scheme: ml.Scheme, Domains: ml.Domains, Global: storage.NewMemStore(),
		GlobalEvery: ml.GlobalEvery, Net: mpi.QsNet(),
	})
	if err != nil {
		return err
	}
	var encodes []float64
	for _, ln := range lines {
		for rank, seg := range ln.segs {
			if err := h.RankStore(rank).Put(ckpt.SegmentKey(rank, ln.seq), seg); err != nil {
				return err
			}
		}
		var eerr error
		d := timeIt(func() { _, eerr = h.EncodeLine(ln.seq) })
		if eerr != nil {
			return eerr
		}
		encodes = append(encodes, ms(d))
	}
	l.set("redundancy.encode_line_ms", median(encodes))
	l.set("redundancy.exchange_MB_per_line", float64(h.Stats().ExchangeBytes)/float64(h.Stats().Encodes)/1e6)

	if err := h.WipeRank(0); err != nil {
		return err
	}
	var gets []float64
	for _, ln := range lines {
		view := h.NewView()
		var gerr error
		d := timeIt(func() { _, gerr = view.Get(ckpt.SegmentKey(0, ln.seq)) })
		if gerr != nil {
			return gerr
		}
		if view.Stats().Rebuilds == 0 {
			return fmt.Errorf("line %d: rank 0's segment was not served by a parity rebuild", ln.seq)
		}
		gets = append(gets, ms(d))
		// Undo the view's read-repair so the next line rebuilds too.
		if err := h.WipeRank(0); err != nil {
			return err
		}
	}
	l.set("redundancy.view_rebuild_get_ms", median(gets))
	return nil
}

// ---- ckptstore ----

func (l *ladder) ckptstoreRungs() error {
	payload := make([]byte, 64*1024)
	for i := range payload {
		payload[i] = byte(i)
	}
	put := &ckptstore.Frame{Kind: ckptstore.KindRequest, Op: ckptstore.OpPut, Client: 1, ID: 1, Key: ckpt.SegmentKey(0, 1), Payload: payload}
	var wire []byte
	l.set("ckptstore.frame_encode_MBps", mbps(len(payload), perCall(func() { wire = put.Encode() })))
	var derr error
	l.set("ckptstore.frame_decode_MBps", mbps(len(wire), perCall(func() {
		if _, err := ckptstore.DecodeFrame(wire); err != nil {
			derr = err
		}
	})))
	if derr != nil {
		return derr
	}

	eng := des.NewEngine()
	svc, err := ckptstore.New(ckptstore.Config{
		Engine:   eng,
		Replicas: []storage.Store{storage.NewMemStore(), storage.NewMemStore(), storage.NewMemStore()},
	})
	if err != nil {
		return err
	}
	defer svc.Close()
	const n = 512
	handle := func(op ckptstore.Op, withPayload bool) (float64, error) {
		var total time.Duration
		for i := 0; i < n; i++ {
			f := &ckptstore.Frame{Kind: ckptstore.KindRequest, Op: op, Client: uint32(i % 8), ID: uint64(i + 1), Key: ckpt.SegmentKey(i%8, uint64(i/8+1))}
			if withPayload {
				f.Payload = payload
			}
			req := f.Encode()
			var resp []byte
			var herr error
			total += timeIt(func() { resp, herr = svc.Handle(req) })
			if herr != nil {
				return 0, herr
			}
			r, err := ckptstore.DecodeFrame(resp)
			if err != nil {
				return 0, err
			}
			if err := r.Status.Err(op, f.Key); err != nil {
				return 0, err
			}
			// Let the batch close and the replicas drain before the
			// next request, so every call meets an idle service.
			eng.Run(eng.Now() + des.Second)
		}
		return float64(total.Microseconds()) / n, nil
	}
	us, err := handle(ckptstore.OpPut, true)
	if err != nil {
		return err
	}
	l.set("ckptstore.handle_put_us", us)
	us, err = handle(ckptstore.OpGet, false)
	if err != nil {
		return err
	}
	l.set("ckptstore.handle_get_us", us)
	return nil
}

// ---- which rungs each workload climbs ----

// sageFootprint returns Sage-1000MB's footprint and page size, the shape
// the bitset and phantom-sweep rungs take.
func sageFootprint() (bytes, pageSize uint64) {
	return uint64(workload.Sage1000MB().Paper.MaxFootprintMB * workload.MB), mem.DefaultPageSize
}

func iwsLadder(shards int) func(*ladder) error {
	return func(l *ladder) error {
		bytes, pageSize := sageFootprint()
		l.bitsetRungs(bytes / pageSize)
		if err := l.memPhantomRungs(bytes, pageSize); err != nil {
			return err
		}
		if err := l.workloadRungs(core.Apps(), 64, shards, measureWindow); err != nil {
			return err
		}
		if err := l.trackerRung("Sage-1000MB", 64, shards); err != nil {
			return err
		}
		l.desScheduleRung()
		if shards > 1 {
			l.desShardRungs(shards)
		}
		return l.mpiRungs(shards)
	}
}

func protectLadder(l *ladder) error {
	bytes, pageSize := sageFootprint()
	l.bitsetRungs(bytes / pageSize)
	if err := l.memPhantomRungs(bytes, pageSize); err != nil {
		return err
	}
	store := storage.NewMemStore()
	cfg := protectConfig(l.seed, store)
	if err := l.workloadRungs([]string{cfg.App}, cfg.Ranks, 0, func(spec workload.Spec, ranks int) des.Time {
		return des.Time(cfg.Periods) * spec.PeriodAt(ranks)
	}); err != nil {
		return err
	}
	if _, err := core.Protect(cfg); err != nil {
		return err
	}
	a, err := collectArtefacts(store, cfg.Ranks)
	if err != nil {
		return err
	}
	if err := l.encodeRungs(a); err != nil {
		return err
	}
	return l.globalCheckpointRung(cfg)
}

// referenceRung times the failure-free supervised run of cfg — the
// write-only half of a heal operation — and returns the store its last
// repetition wrote, the ladder's artefacts.
func (l *ladder) referenceRung(cfg autonomic.Config) (storage.Store, error) {
	cfg.Seed = l.seed
	var runs []float64
	var store storage.Store
	for i := 0; i < 3; i++ {
		store = storage.NewMemStore()
		cfg.Store = store
		var rep *autonomic.Report
		var err error
		d := timeIt(func() { rep, err = autonomic.Run(cfg) })
		if err != nil {
			return nil, err
		}
		if !rep.Completed {
			return nil, fmt.Errorf("failure-free reference run did not complete")
		}
		runs = append(runs, ms(d))
	}
	ref := median(runs)
	l.set("autonomic.reference_ms", ref)
	l.set("autonomic.injected_ms", l.opP50-ref)
	return store, nil
}

func healStencilLadder(l *ladder) error {
	cfg := healStencilConfig()
	if err := l.memBackedRungs(cfg); err != nil {
		return err
	}
	if err := l.kernelRung(cfg); err != nil {
		return err
	}
	store, err := l.referenceRung(cfg)
	if err != nil {
		return err
	}
	a, err := collectArtefacts(store, cfg.Ranks)
	if err != nil {
		return err
	}
	if err := l.encodeRungs(a); err != nil {
		return err
	}
	return l.readRungs(a)
}

func healMultilevelLadder(l *ladder) error {
	cfg, err := healMultilevelConfig()
	if err != nil {
		return err
	}
	if err := l.memBackedRungs(cfg); err != nil {
		return err
	}
	if err := l.kernelRung(cfg); err != nil {
		return err
	}
	if _, err := l.referenceRung(cfg); err != nil {
		return err
	}
	// The operation's own L3 holds only every GlobalEvery-th line. The
	// same failure-free run with write-through on every line leaves all
	// of them where the benchmark can reach them.
	every := *cfg.MultiLevel
	every.GlobalEvery = 1
	cfg.MultiLevel = &every
	cfg.Seed = l.seed
	store := storage.NewMemStore()
	cfg.Store = store
	if _, err := autonomic.Run(cfg); err != nil {
		return err
	}
	a, err := collectArtefacts(store, cfg.Ranks)
	if err != nil {
		return err
	}
	ml, err := healMultilevelConfig()
	if err != nil {
		return err
	}
	return l.redundancyRungs(a, ml.MultiLevel)
}

func storeServiceLadder(l *ladder) error { return l.ckptstoreRungs() }
