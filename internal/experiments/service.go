package experiments

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"

	"repro/internal/chaos"
	"repro/internal/ckpt"
	"repro/internal/ckptstore"
	"repro/internal/des"
	"repro/internal/storage"
)

// A17: checkpoint-store service ablation. The paper's feasibility
// budget is per-process — IB under ~100 MB/s against the sink at a 1 s
// timeslice (§6.3) — but a shared checkpoint service sees the *sum* of
// its clients, plus their faults. This experiment drives the
// leader/follower service with growing client counts writing real
// incremental segment chains once per timeslice, with and without
// injected faults (leader crash mid-run, follower partition, a flaky
// follower), and measures what the sustained aggregate acknowledged
// bandwidth, the p99 Put latency, and the degradation ladder actually
// do — with the lossless contract checked at the end by running
// ckpt.VerifyChain over the service's total state for every client's
// chain: an acked segment that cannot be verified is a silent drop.

// ServiceRow is one (client count × fault toggle) cell of A17.
type ServiceRow struct {
	// Clients is the number of concurrent ranks writing chains.
	Clients int
	// Faulted reports whether the fault scenario was injected.
	Faulted bool
	// OfferedMBs and AckedMBs are aggregate offered vs acknowledged
	// bandwidth over the horizon (MB/s). Their gap is shed load.
	OfferedMBs, AckedMBs float64
	// PerClientMBs is AckedMBs per client — the number to hold against
	// the paper's per-process 100 MB/s budget.
	PerClientMBs float64
	// P99Put is the modeled 99th-percentile Put completion latency.
	P99Put des.Time
	// Sheds counts admission refusals (budget + fairness); Deadlines
	// counts up-front deadline refusals.
	Sheds, Deadlines uint64
	// QuorumFailures counts puts that missed quorum on first attempt.
	QuorumFailures uint64
	// Coalesced is always zero: the service writes every put, a key
	// already in the open batch included. The column stays so the
	// table's layout does not move.
	//
	//lint:ignore deadexport kept at zero for the table's coal column and for readers of the row
	Coalesced uint64
	// SyncAcks/AsyncAcks/SpillAcks split acks by durability at ack time.
	SyncAcks, AsyncAcks, SpillAcks uint64
	// Failovers and ModeChanges count the failover protocol's work.
	Failovers, ModeChanges uint64
	// Lossless reports that every client's last acknowledged segment
	// chain verified end-to-end through the service view.
	Lossless bool
}

// servicePages builds a client's page records: pages pages of pageSize
// bytes cut from one slab, page p filled with fill+p. A client's page
// contents do not change from tick to tick and Encode only reads them,
// so serviceRun builds them once per client and every segment of that
// client's chain shares them — the load generator must not be a large
// part of the load it measures.
func servicePages(pages int, pageSize uint64, fill byte) []ckpt.PageRecord {
	slab := make([]byte, uint64(pages)*pageSize)
	recs := make([]ckpt.PageRecord, pages)
	for p := range recs {
		lo, hi := uint64(p)*pageSize, uint64(p+1)*pageSize
		data := slab[lo:hi:hi]
		// Fill by doubling copies: a byte loop here is a sixth of a
		// service run's CPU and its speed swings with code alignment.
		data[0] = fill + byte(p)
		for n := 1; n < len(data); n *= 2 {
			copy(data[n:], data[:n])
		}
		recs[p] = ckpt.PageRecord{Addr: lo, Data: data}
	}
	return recs
}

// serviceSegment builds one verifiable segment for rank over the given
// page records, full or incremental against the chain's epoch.
func serviceSegment(rank int, seq, epoch uint64, pageSize uint64, recs []ckpt.PageRecord) *ckpt.Segment {
	kind := ckpt.Incremental
	if seq == epoch {
		kind = ckpt.Full
	}
	return &ckpt.Segment{
		Rank: rank, Seq: seq, Epoch: epoch, Kind: kind, PageSize: pageSize,
		Regions: []ckpt.RegionInfo{{Start: 0, Size: uint64(len(recs)) * pageSize}},
		Pages:   recs,
	}
}

// ServiceAblation runs A17 for the given client counts (nil → 4, 12,
// 32), each with and without the fault scenario, deterministically from
// seed. Each client writes one ~64 KB incremental segment per 1 s
// timeslice with small seeded start jitter; a failed Put re-bases the
// client's chain on a fresh full segment, so every acknowledged chain
// stays verifiable.
func ServiceAblation(seed uint64, clientCounts []int) ([]ServiceRow, error) {
	if len(clientCounts) == 0 {
		clientCounts = []int{4, 12, 32}
	}
	var rows []ServiceRow
	for _, n := range clientCounts {
		for _, faulted := range []bool{false, true} {
			row, err := serviceRun(seed, n, faulted)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// serviceRun executes one A17 cell.
func serviceRun(seed uint64, clients int, faulted bool) (ServiceRow, error) {
	const (
		pages     = 16
		pageSize  = 4096 // 64 KB of page payload per segment
		timeslice = des.Second
		ticks     = 10
		horizon   = (ticks + 2) * timeslice // slack for drain after last tick
	)
	eng := des.NewEngine()
	var flaky storage.Store = storage.NewMemStore()
	if faulted {
		// The flaky follower: 5 % of its operations fail transiently.
		sched, err := chaos.ParseSchedule(fmt.Sprintf("storage-decay transient 0.05 seed %d", seed^0xF1A2))
		if err != nil {
			return ServiceRow{}, fmt.Errorf("experiments: A17: %w", err)
		}
		plan, err := sched.Compile(seed)
		if err != nil {
			return ServiceRow{}, fmt.Errorf("experiments: A17: %w", err)
		}
		flaky = chaos.NewDriver(eng, plan).WrapStore(flaky)
	}
	svc, err := ckptstore.New(ckptstore.Config{
		Engine:   eng,
		Replicas: []storage.Store{storage.NewMemStore(), storage.NewMemStore(), flaky},
		// A deliberately slow persistence tier (2 MB/s per replica) so
		// client growth actually saturates something at this scale.
		ReplicaModel:   storage.Model{Name: "slow-tier", Latency: des.Millisecond, Bandwidth: 2e6},
		InFlightBudget: 1 << 20, // 1 MiB in flight
		ClientShare:    0.25,
		OpDeadline:     800 * des.Millisecond,
	})
	if err != nil {
		return ServiceRow{}, fmt.Errorf("experiments: A17: %w", err)
	}
	if faulted {
		// Crash the leader just before the tick-5 write burst: the burst
		// lands inside the promotion window and rides the spill path.
		eng.Schedule(5*timeslice-des.Millisecond, svc.CrashLeader)
		svc.PartitionFollower(1, 2*timeslice, 7*des.Second/2)
		// The crashed ex-leader returns late as a follower; drain and
		// read-repair close its gap.
		eng.Schedule(9*timeslice, func() { svc.Heal(0) })
	}

	rng := rand.New(rand.NewPCG(seed, 0xA17))
	type clientState struct {
		store    storage.Store
		pages    []ckpt.PageRecord
		enc      []byte // encode buffer, reused: the store's Put borrows
		seq      uint64 // last seq offered
		epoch    uint64 // chain base of the segment being written
		acked    uint64 // last seq acknowledged
		rebase   bool
		offered  uint64
		failures uint64
	}
	states := make([]*clientState, clients)
	for i := range states {
		states[i] = &clientState{
			epoch: 1,
			pages: servicePages(pages, pageSize, byte(seed)+byte(i)),
			store: storage.NewResilientStore(svc.Client(uint32(i)), storage.RetryPolicy{
				MaxAttempts: 3, BaseDelay: des.Millisecond, MaxDelay: 20 * des.Millisecond,
				Deadline: 100 * des.Millisecond, Seed: seed + uint64(i),
			}),
		}
	}
	for i := range states {
		i := i
		jitter := des.Time(rng.Int64N(int64(10 * des.Millisecond)))
		for tick := 0; tick < ticks; tick++ {
			at := des.Time(tick+1)*timeslice + jitter
			eng.Schedule(at, func() {
				cs := states[i]
				cs.seq++
				if cs.rebase {
					cs.epoch = cs.seq
					cs.rebase = false
				}
				cs.enc = serviceSegment(i, cs.seq, cs.epoch, pageSize, cs.pages).AppendEncode(cs.enc[:0])
				cs.offered += uint64(len(cs.enc))
				if err := cs.store.Put(ckpt.SegmentKey(i, cs.seq), cs.enc); err != nil {
					// Shed or refused: the chain has a hole at cs.seq, so
					// the next attempt must start a fresh full chain.
					cs.failures++
					cs.rebase = true
					return
				}
				cs.acked = cs.seq
			})
		}
	}
	eng.Run(horizon)

	row := ServiceRow{Clients: clients, Faulted: faulted, Lossless: true}
	st := svc.Stats()
	var offered uint64
	for _, cs := range states {
		offered += cs.offered
	}
	secs := des.Time(ticks * timeslice).Seconds()
	row.OfferedMBs = float64(offered) / secs / 1e6
	row.AckedMBs = float64(st.AckedBytes) / secs / 1e6
	row.PerClientMBs = row.AckedMBs / float64(clients)
	row.P99Put = latencyPercentile(svc.PutLatencies(), 0.99)
	row.Sheds = st.OverloadSheds + st.FairnessSheds
	row.Deadlines = st.DeadlineRefusals
	row.QuorumFailures = st.QuorumFailures
	row.SyncAcks, row.AsyncAcks, row.SpillAcks = st.SyncAcks, st.AsyncAcks, st.SpillAcks
	row.Failovers = st.Failovers
	row.ModeChanges = st.ModeChanges
	// The lossless contract: every client's last *acknowledged* segment
	// must verify through the service's total state — journal included.
	for i, cs := range states {
		if cs.acked == 0 {
			continue
		}
		if err := ckpt.VerifyChain(svc.View(), i, cs.acked); err != nil {
			row.Lossless = false
		}
	}
	return row, nil
}

// latencyPercentile returns the p-th percentile (0 < p <= 1) of the
// given latencies, 0 when empty.
func latencyPercentile(lats []des.Time, p float64) des.Time {
	if len(lats) == 0 {
		return 0
	}
	sorted := append([]des.Time(nil), lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p*float64(len(sorted))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// FormatService renders the A17 rows as a text table, with the paper's
// per-process budget for reference.
func FormatService(rows []ServiceRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%7s %6s %9s %9s %10s %10s %6s %6s %6s %6s %6s %6s %5s %5s %8s\n",
		"clients", "faults", "offer MB/s", "ack MB/s", "per-client", "p99 put",
		"shed", "ddl", "quorF", "coal", "async", "spill", "fovr", "mode", "lossless")
	for _, r := range rows {
		fmt.Fprintf(&b, "%7d %6s %9.2f %9.2f %10.3f %10v %6d %6d %6d %6d %6d %6d %5d %5d %8s\n",
			r.Clients, yesNo(r.Faulted), r.OfferedMBs, r.AckedMBs, r.PerClientMBs, r.P99Put,
			r.Sheds, r.Deadlines, r.QuorumFailures, r.Coalesced, r.AsyncAcks, r.SpillAcks,
			r.Failovers, r.ModeChanges, yesNo(r.Lossless))
	}
	fmt.Fprintf(&b, "paper budget: 100 MB/s per process at a 1 s timeslice (feasible while per-client stays under it)\n")
	return b.String()
}
