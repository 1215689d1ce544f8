package repro_test

// Runnable examples of the library, one per question a reader brings to
// it. Each prints a report that ends in its verdict, and `go test`
// checks the whole report byte for byte against the function's Output
// block: a change that breaks an example, flips its verdict or makes its
// output depend on map order fails here. Run one with, e.g.,
//
//	go test -run '^Example_chaos_replay$' -v .

import (
	"fmt"
	"log"

	"repro/internal/autonomic"
	"repro/internal/ckpt"
	"repro/internal/ckptstore"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/experiments"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/storage"
	"repro/internal/workload"
)

// Burst-aligned checkpointing: quantifies the paper's §6.2 observation
// that "it may not be convenient to checkpoint during a processing
// burst, because pages are likely to be re-used in a short amount of
// time". The same application is checkpointed once per iteration under
// two policies — in the middle of the processing burst versus in the
// quiet communication window — and the copy-on-write traffic an
// overlapped checkpointer would pay is compared.
func Example_burst_aligned() {
	res, err := experiments.AblationAlignment(experiments.RunOpts{Ranks: 8, Seed: 7, Periods: 3})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("Sage-1000MB, %d checkpoints, interval = one iteration\n\n", res.Checkpoints)
	fmt.Printf("%-28s %16s %16s\n", "policy", "volume (MB)", "CoW copies (MB)")
	fmt.Printf("%-28s %16.1f %16.1f\n", "mid-processing-burst", res.MidBurstVolumeMB, res.MidBurstCowMB)
	fmt.Printf("%-28s %16.1f %16.1f\n", "communication window", res.AlignedVolumeMB, res.AlignedCowMB)

	fmt.Println()
	if res.AlignedCowMB > 0 {
		fmt.Printf("checkpointing between bursts cuts copy-on-write traffic %.0fx\n",
			res.MidBurstCowMB/res.AlignedCowMB)
	} else {
		fmt.Printf("checkpointing between bursts eliminates all %.1f MB of copy-on-write traffic\n",
			res.MidBurstCowMB)
	}
	fmt.Println("— the bulk-synchronous structure (Fig 1) is worth exploiting, as §6.2 argues.")

	// Output:
	// Sage-1000MB, 3 checkpoints, interval = one iteration
	//
	// policy                            volume (MB)  CoW copies (MB)
	// mid-processing-burst                   2129.5            849.5
	// communication window                   1254.0              0.0
	//
	// checkpointing between bursts eliminates all 849.5 MB of copy-on-write traffic
	// — the bulk-synchronous structure (Fig 1) is worth exploiting, as §6.2 argues.
}

// Chaos replay: the adversarial version of Example_self_healing. Instead
// of a Poisson failure clock, a declarative chaos schedule compiles —
// under one seed — into a plan of correlated faults: a network partition
// with a node crash inside it, a storage brownout, a crash aimed inside a
// two-phase commit window, and silent bit flips of stored checkpoint
// payloads. The validator runs the same computation twice, failure-free
// and under the plan, and compares the final per-rank address-space
// digests and checksum bit for bit.
func Example_chaos_replay() {
	cfg := autonomic.Config{
		Ranks:           4,
		Nx:              32,
		RowsPerRank:     8,
		Boundary:        9,
		Iterations:      40,
		CkptEvery:       5,
		ComputeTime:     200 * des.Millisecond,
		RestartOverhead: 500 * des.Millisecond,
		Sink:            storage.Model{Name: "nfs-class", Latency: 5 * des.Millisecond, Bandwidth: 2e4},
		Seed:            11,
		TwoPhaseCommit:  true,
		// One hardened replica: the storage lines strike below its
		// integrity envelope and retry layer.
		Replicas: 1,
	}
	cfg.Faults = `
# One correlated burst: the fabric partitions and a node dies inside it.
partition at 2s..4s drop 0.9 group burst
crash at 2s..4s group burst

# A crash aimed inside a two-phase prepare->commit window.
commit-crash at 5s..30s

# The storage tier browns out while recovery may need it.
storage-brownout at 5s..7s rate 0.3

# Silent at-rest corruption of stored checkpoint payloads.
bitflip at 2s..9s count 3
`

	out, err := autonomic.ValidateReplay(cfg)
	if err != nil {
		log.Fatal(err)
	}
	ref, inj := out.Reference, out.Injected

	fmt.Printf("distributed Jacobi, %d ranks, %d iterations, checkpoint every %d, seed %d\n\n",
		cfg.Ranks, cfg.Iterations, cfg.CkptEvery, cfg.Seed)

	fmt.Printf("%-28s %14s %14s\n", "", "failure-free", "under chaos")
	fmt.Printf("%-28s %14d %14d\n", "failures", ref.Failures, inj.Failures)
	fmt.Printf("%-28s %14d %14d\n", "iterations replayed", ref.LostIterations, inj.LostIterations)
	fmt.Printf("%-28s %14d %14d\n", "checkpoints wasted", ref.WastedCheckpoints, inj.WastedCheckpoints)
	fmt.Printf("%-28s %14d %14d\n", "commits aborted", ref.AbortedCommits, inj.AbortedCommits)
	fmt.Printf("%-28s %14d %14d\n", "degraded recoveries", ref.DegradedRecoveries, inj.DegradedRecoveries)
	fmt.Printf("%-28s %14.1f %14.1f\n", "elapsed (virtual s)", ref.Elapsed.Seconds(), inj.Elapsed.Seconds())
	fmt.Printf("%-28s %13.1f%% %13.1f%%\n", "efficiency", ref.Efficiency*100, inj.Efficiency*100)
	fmt.Printf("%-28s %14.6f %14.6f\n\n", "final checksum", ref.Checksum, inj.Checksum)

	fmt.Printf("injected: %d crashes, %d mid-commit kills, %d bit flips, %d outage refusals, %d brownout drops\n",
		out.Stats.Crashes, out.Stats.CommitCrashes, out.Stats.BitFlips,
		out.Stats.OutageRefusals, out.Stats.BrownoutDrops)
	fmt.Println("\nper-failure lost-work accounting:")
	fmt.Printf("  %10s %6s %8s %6s %8s %10s %7s\n", "at", "iter", "commit?", "restd", "lost", "downtime", "wasted")
	for _, ev := range inj.FailureLog {
		during := ""
		if ev.DuringCommit {
			during = "yes"
		}
		fmt.Printf("  %10v %6d %8s %6d %8d %10v %7d\n",
			ev.At, ev.Iter, during, ev.RestoredIter, ev.LostIterations, ev.Downtime, ev.WastedCheckpoints)
	}
	fmt.Println()

	for i, d := range inj.SpaceDigests {
		fmt.Printf("rank %d digest: %016x vs %016x\n", i, d, ref.SpaceDigests[i])
	}
	if out.BitExact() {
		fmt.Printf("\nreplay is BIT-EXACT: torn apart %d times, restored, replayed — same bytes.\n", inj.Failures)
	} else {
		fmt.Println("\nREPLAY DIVERGED — the equivalence claim is broken")
	}

	// Output:
	// distributed Jacobi, 4 ranks, 40 iterations, checkpoint every 5, seed 11
	//
	//                                failure-free    under chaos
	// failures                                  0              2
	// iterations replayed                       0             18
	// checkpoints wasted                        0              1
	// commits aborted                           0              1
	// degraded recoveries                       0              1
	// elapsed (virtual s)                    13.0           20.8
	// efficiency                            61.8%          38.4%
	// final checksum                  3693.887921    3693.887921
	//
	// injected: 1 crashes, 1 mid-commit kills, 3 bit flips, 0 outage refusals, 10 brownout drops
	//
	// per-failure lost-work accounting:
	//           at   iter  commit?  restd     lost   downtime  wasted
	//       2.346s      8               5        3     2.990s       0
	//       7.372s     15      yes      0       15     0.500s       1
	//
	// rank 0 digest: 944fe792b16b6906 vs 944fe792b16b6906
	// rank 1 digest: 3640d5a91f60a33f vs 3640d5a91f60a33f
	// rank 2 digest: 2e4443495cbf42f7 vs 2e4443495cbf42f7
	// rank 3 digest: 4ae137dfefaa36a9 vs 4ae137dfefaa36a9
	//
	// replay is BIT-EXACT: torn apart 2 times, restored, replayed — same bytes.
}

// Checkpoint-store service: eight ranks write incremental checkpoint
// chains once per second to a shared leader/follower service while the
// run goes wrong around them — a follower partitions away, the leader
// crashes in the middle of a write burst, a promoted follower takes
// over, and the crashed ex-leader returns late. The service walks its
// degradation ladder (sync-replicate → async-replicate → local-spill)
// and back up as the group heals; at the end, every rank's last
// acknowledged segment chain is verified end-to-end through the
// service's total state with ckpt.VerifyChain. An acknowledged segment
// that cannot be verified would be a silent drop — the one thing a
// checkpoint store must never do.
func Example_ckpt_service() {
	const (
		ranks     = 8
		ticks     = 6
		pageSize  = 4096
		pages     = 8
		timeslice = des.Second
	)
	eng := des.NewEngine()
	svc, err := ckptstore.New(ckptstore.Config{
		Engine: eng,
		Replicas: []storage.Store{
			storage.NewMemStore(), storage.NewMemStore(), storage.NewMemStore(),
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// The fault script: a follower partitions away during ticks 2-4, the
	// leader dies 1 ms before the tick-4 write burst (the burst rides the
	// spill journal while the 500 ms promotion runs, and the promoted
	// leader stands alone — under quorum — until the partition heals),
	// and the crashed ex-leader returns for the final tick.
	svc.PartitionFollower(1, 1500*des.Millisecond, 4600*des.Millisecond)
	eng.Schedule(4*timeslice-des.Millisecond, svc.CrashLeader)
	eng.Schedule(5*timeslice+500*des.Millisecond, func() { svc.Heal(0) })

	// Each rank writes one segment per timeslice through its own client
	// behind the standard retry layer; a failed Put re-bases the chain on
	// a fresh full segment so every acknowledged chain stays verifiable.
	lastAcked := make([]uint64, ranks)
	epochs := make([]uint64, ranks)
	rebase := make([]bool, ranks)
	for r := 0; r < ranks; r++ {
		epochs[r] = 1
		client := storage.NewResilientStore(svc.Client(uint32(r)), storage.RetryPolicy{
			MaxAttempts: 4, BaseDelay: des.Millisecond, MaxDelay: 50 * des.Millisecond,
			Deadline: 200 * des.Millisecond, Seed: uint64(r) + 1,
		})
		for tick := 1; tick <= ticks; tick++ {
			seq := uint64(tick)
			eng.Schedule(des.Time(tick)*timeslice+des.Time(r)*des.Microsecond, func() {
				if rebase[r] {
					epochs[r] = seq
					rebase[r] = false
				}
				kind := ckpt.Incremental
				if seq == epochs[r] {
					kind = ckpt.Full
				}
				seg := &ckpt.Segment{
					Rank: r, Seq: seq, Epoch: epochs[r], Kind: kind, PageSize: pageSize,
					Regions: []ckpt.RegionInfo{{Start: 0, Size: pages * pageSize}},
				}
				for p := 0; p < pages; p++ {
					data := make([]byte, pageSize)
					for i := range data {
						data[i] = byte(r + p + tick)
					}
					seg.Pages = append(seg.Pages, ckpt.PageRecord{Addr: uint64(p) * pageSize, Data: data})
				}
				if err := client.Put(ckpt.SegmentKey(r, seq), seg.Encode()); err != nil {
					rebase[r] = true
					return
				}
				lastAcked[r] = seq
			})
		}
	}
	eng.Run(des.Time(ticks+2) * timeslice)

	st := svc.Stats()
	fmt.Printf("checkpoint-store service: %d ranks x %d timeslices, 3 replicas, quorum 2\n\n", ranks, ticks)
	fmt.Printf("degradation ladder: %d mode changes\n", st.ModeChanges)
	fmt.Printf("acks: %d sync, %d async, %d spill (of %d puts; %d bytes)\n",
		st.SyncAcks, st.AsyncAcks, st.SpillAcks, st.Puts, st.AckedBytes)
	fmt.Printf("faults ridden out: %d quorum misses, %d leader crash, %d failover; journal drained %d bytes\n",
		st.QuorumFailures, st.LeaderCrashes, st.Failovers, st.DrainedBytes)
	fmt.Printf("new leader: replica %d\n\n", svc.Leader())

	// The verdict: every rank's last acknowledged chain must verify
	// through the service's composite state.
	line, ok, err := ckpt.LatestVerifiableSeq(svc.View(), ranks)
	if err != nil || !ok {
		fmt.Printf("no coordinated recovery line: %v\n", err)
		fmt.Println("service DROPPED acknowledged data")
		return
	}
	lost := 0
	for r := 0; r < ranks; r++ {
		if lastAcked[r] == 0 {
			continue
		}
		if err := ckpt.VerifyChain(svc.View(), r, lastAcked[r]); err != nil {
			fmt.Printf("rank %d: acked seq %d does not verify: %v\n", r, lastAcked[r], err)
			lost++
		}
	}
	fmt.Printf("coordinated recovery line: seq %d, verified across all %d ranks\n", line, ranks)
	if lost == 0 {
		fmt.Println("every acknowledged segment verified: service is LOSSLESS across crash and failover")
	} else {
		fmt.Printf("%d ranks lost acknowledged data: service DROPPED segments\n", lost)
	}

	// Output:
	// checkpoint-store service: 8 ranks x 6 timeslices, 3 replicas, quorum 2
	//
	// degradation ladder: 4 mode changes
	// acks: 40 sync, 0 async, 8 spill (of 48 puts; 1579920 bytes)
	// faults ridden out: 0 quorum misses, 1 leader crash, 1 failover; journal drained 263320 bytes
	// new leader: replica 2
	//
	// coordinated recovery line: seq 6, verified across all 8 ranks
	// every acknowledged segment verified: service is LOSSLESS across crash and failover
}

// Custom application: the workload models are not limited to the paper's
// nine codes — a Spec describes any bulk-synchronous application. This
// example models a hypothetical ocean-circulation code (two sweeps over a
// 200 MB working set every 12 s, heavy halo exchange, double-buffered
// state) and asks the paper's question of it: how much bandwidth would
// transparent incremental checkpointing need, and does it fit?
func Example_custom_app() {
	ocean := workload.Spec{
		Name: "Ocean-300MB",
		// No published targets for a custom app: footprint and period
		// are the *inputs*; Paper doubles as the nominal description.
		Paper: workload.Paper{
			MaxFootprintMB: 300,
			AvgFootprintMB: 300,
			PeriodS:        12,
		},
		WorkingSetMB: 200,
		Sweeps:       2,
		BurstFrac:    0.75,
		RateProfile:  []float64{1.2, 1.0, 0.8},
		AltShiftMB:   40, // double-buffered prognostic fields
		CommMB:       24, // heavy halo exchange
		CommStripMB:  6,
		CommMsgKB:    512,
		CommClumps:   2,
		RefRanks:     64,
		ScaleAlpha:   0.03,
		InitRateMBs:  400,
		StaticMB:     2,
	}
	if err := ocean.Validate(); err != nil {
		log.Fatal(err)
	}

	for _, ts := range []des.Time{des.Second, 5 * des.Second, 15 * des.Second} {
		run, err := experiments.RunOne(ocean, experiments.RunOpts{
			Ranks: 16, Timeslice: ts, Periods: 4, Seed: 7,
		})
		if err != nil {
			log.Fatal(err)
		}
		m := metrics.Summarize(run.IB)
		disk := storage.SCSISink().Headroom(m.Mean * 1e6)
		fmt.Printf("timeslice %4v: avg IB %6.1f MB/s, max %6.1f — %4.1fx disk headroom\n",
			ts, m.Mean, m.Max, disk)
	}
	fmt.Println("\nA custom 300 MB application checkpoints comfortably within a")
	fmt.Println("single SCSI array even at a 1-second timeslice.")

	// Output:
	// timeslice 1.000s: avg IB   36.4 MB/s, max   56.8 —  8.8x disk headroom
	// timeslice 5.000s: avg IB   33.1 MB/s, max   41.0 —  9.7x disk headroom
	// timeslice 15.000s: avg IB   15.4 MB/s, max   16.4 — 20.8x disk headroom
	//
	// A custom 300 MB application checkpoints comfortably within a
	// single SCSI array even at a 1-second timeslice.
}

// Failure recovery: the end-to-end mechanism the paper argues is
// feasible, demonstrated on a *real* computation with content-carrying
// memory. A Jacobi stencil runs under an incremental checkpointer; the
// process "crashes" midway; a fresh address space is restored from the
// checkpoint chain and the computation resumes — finishing with exactly
// the same answer as an uninterrupted run.
func Example_failure_recovery() {
	const (
		nx, ny     = 64, 64
		boundary   = 100.0
		totalIters = 60
		ckptEvery  = 10
		crashAt    = 37 // iterations completed when the "failure" hits
	)
	// step advances st to iteration upto; checksum sums its current grid.
	step := func(st kernels.SoloKernel, upto int) {
		for st.Iter() < upto {
			if err := st.Step(); err != nil {
				log.Fatal(err)
			}
		}
	}
	checksum := func(st kernels.SoloKernel) float64 {
		grid, err := st.Values()
		if err != nil {
			log.Fatal(err)
		}
		var sum float64
		for _, v := range grid {
			sum += v
		}
		return sum
	}

	// ---- Phase 1: protected run until the crash -------------------
	eng := des.NewEngine()
	sp := mem.NewAddressSpace(mem.Config{PageSize: 4096}) // backed: real contents
	store := storage.NewMemStore()

	st, err := kernels.NewStencil2D(sp, nx, ny, boundary)
	if err != nil {
		log.Fatal(err)
	}
	c, err := ckpt.NewCheckpointer(eng, sp, ckpt.Options{
		Store:     store,
		Sink:      storage.SCSISink(),
		FullEvery: 3, // a full checkpoint every 3 bounds the chain
	})
	if err != nil {
		log.Fatal(err)
	}
	c.Start()

	lastCkptIter := -1
	var lastSeq uint64
	for i := ckptEvery; i <= crashAt; i += ckptEvery {
		step(st, i)
		res, err := c.Checkpoint()
		if err != nil {
			log.Fatal(err)
		}
		lastCkptIter, lastSeq = i, res.Seq
		fmt.Printf("checkpoint %d (%s): %d pages, %.1f KB, commit %.1f ms\n",
			res.Seq, res.Kind, res.Pages, float64(res.Bytes)/1024,
			res.Duration.Seconds()*1000)
	}
	step(st, crashAt)
	fmt.Printf("\n*** failure after iteration %d (last checkpoint at iteration %d) ***\n\n",
		crashAt, lastCkptIter)
	// The original space and kernel state are now lost.

	// ---- Phase 2: restore and resume ------------------------------
	spaces, err := ckpt.RestoreAll(store, 1, lastSeq)
	if err != nil {
		log.Fatal(err)
	}
	fresh := spaces[0]
	fmt.Printf("restored rank 0 to checkpoint %d: %d regions, %.1f KB of state\n",
		lastSeq, len(fresh.Regions())-1, float64(fresh.Footprint())/1024)

	// Re-attach the kernel to the restored memory: the named stencil's
	// constructor runs again over the restored grids, which live at the
	// same addresses and hold the boundary, so the kernel resumes from
	// the restored contents after rolling back to iteration
	// lastCkptIter.
	resumed, err := kernels.AttachSoloKernel("stencil", fresh, nx, lastCkptIter)
	if err != nil {
		log.Fatal(err)
	}
	step(resumed, totalIters)

	// The reference: the same stencil, uninterrupted.
	ref, err := kernels.NewStencil2D(mem.NewAddressSpace(mem.Config{PageSize: 4096}), nx, ny, boundary)
	if err != nil {
		log.Fatal(err)
	}
	step(ref, totalIters)

	got, want := checksum(resumed), checksum(ref)
	fmt.Printf("\nchecksum after recovery : %.6f\n", got)
	fmt.Printf("checksum without failure: %.6f\n", want)
	if got == want {
		fmt.Println("recovery is EXACT: the failure left no trace in the result")
	} else {
		fmt.Println("MISMATCH — recovery failed")
	}

	// Output:
	// checkpoint 0 (full): 17 pages, 68.3 KB, commit 5.2 ms
	// checkpoint 1 (incremental): 17 pages, 68.3 KB, commit 5.2 ms
	// checkpoint 2 (incremental): 17 pages, 68.3 KB, commit 5.2 ms
	//
	// *** failure after iteration 37 (last checkpoint at iteration 30) ***
	//
	// restored rank 0 to checkpoint 2: 3 regions, 68.0 KB of state
	//
	// checksum after recovery : 115812.156503
	// checksum without failure: 115812.156503
	// recovery is EXACT: the failure left no trace in the result
}

// Flaky network: the whole cluster is the adversary. A distributed
// Jacobi solve runs over an interconnect that drops, duplicates and
// jitters messages; node failures are no longer observed by an oracle
// but *detected* by a gossip heartbeat protocol riding the same lossy
// links; and every coordinated checkpoint goes through a two-phase
// prepare/commit — a rank dying inside the commit window aborts the
// line, deletes its segments, and recovery falls back to the newest
// line with a verified COMMIT marker. The final answer is still
// bit-identical to a failure-free run on a clean network.
func Example_flaky_network() {
	cfg := autonomic.Config{
		Ranks:       4,
		Nx:          48,
		RowsPerRank: 12,
		Boundary:    100,
		Iterations:  60,
		CkptEvery:   5,
		ComputeTime: 200 * des.Millisecond,
		// A slow shared sink keeps commit windows wide, so deaths can
		// actually land mid-checkpoint.
		Sink: storage.Model{Name: "nfs-class", Latency: 5 * des.Millisecond, Bandwidth: 2e4},
		Seed: 5,
	}

	// Ground truth: no failures, clean network, instant detection.
	clean, err := autonomic.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// The cluster under test: 10% message loss with duplicates and
	// jitter, and a mid-run degradation window where the fabric gets
	// dramatically worse.
	// Nodes fail every ~10 s on top.
	cfg.Faults = `
net loss 0.10 dup 0.02 jitter 300us seed 23
brownout at 10s..14s drop 0.25 slow 4
crash every exp 10s
`
	cfg.HeartbeatPeriod = 50 * des.Millisecond // timeout defaults to 4x
	cfg.TwoPhaseCommit = true
	cfg.RestartOverhead = 500 * des.Millisecond

	rep, err := autonomic.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("distributed Jacobi, %d ranks, %d iterations, checkpoint every %d\n",
		cfg.Ranks, cfg.Iterations, cfg.CkptEvery)
	fmt.Printf("network: 10%% loss (+dups, jitter), 4s degraded window\n")
	fmt.Printf("protocols: %v-period heartbeats, two-phase global commit\n\n", cfg.HeartbeatPeriod)

	fmt.Printf("%-30s %14s %14s\n", "", "clean cluster", "flaky cluster")
	fmt.Printf("%-30s %14d %14d\n", "node failures survived", clean.Failures, rep.Failures)
	fmt.Printf("%-30s %14d %14d\n", "recoveries", clean.Recoveries, rep.Recoveries)
	fmt.Printf("%-30s %14d %14d\n", "commits aborted mid-window", clean.AbortedCommits, rep.AbortedCommits)
	fmt.Printf("%-30s %14d %14d\n", "iterations rolled back", clean.LostIterations, rep.LostIterations)
	fmt.Printf("%-30s %13.1f%% %13.1f%%\n", "efficiency", clean.Efficiency*100, rep.Efficiency*100)
	fmt.Printf("%-30s %14.6f %14.6f\n", "final checksum", clean.Checksum, rep.Checksum)

	var sum, slowest des.Time
	for _, l := range rep.DetectionLatencies {
		sum += l
		slowest = max(slowest, l)
	}
	fmt.Printf("\nwhat failure detection measured:\n")
	fmt.Printf("  detected deaths:    %d\n", len(rep.DetectionLatencies))
	if n := len(rep.DetectionLatencies); n > 0 {
		fmt.Printf("  detection latency:  mean %v, max %v\n", sum/des.Time(n), slowest)
	}
	fmt.Printf("  false suspicions:   %d (heartbeats lost to the fabric)\n", rep.FalseSuspicions)

	if rep.Checksum == clean.Checksum {
		fmt.Printf("\nbit-identical result through %d deaths on a lossy fabric.\n", rep.Failures)
	} else {
		fmt.Println("\nRESULT DIVERGED — recovery is broken")
	}

	// Output:
	// distributed Jacobi, 4 ranks, 60 iterations, checkpoint every 5
	// network: 10% loss (+dups, jitter), 4s degraded window
	// protocols: 0.050s-period heartbeats, two-phase global commit
	//
	//                                 clean cluster  flaky cluster
	// node failures survived                      0              2
	// recoveries                                  0              2
	// commits aborted mid-window                  0              0
	// iterations rolled back                      0              4
	// efficiency                              49.3%          30.9%
	// final checksum                   76827.509159   76827.509159
	//
	// what failure detection measured:
	//   detected deaths:    1
	//   detection latency:  mean 0.188s, max 0.188s
	//   false suspicions:   1 (heartbeats lost to the fabric)
	//
	// bit-identical result through 2 deaths on a lossy fabric.
}

// Hardened storage: the self-healing run of Example_self_healing, but
// the stable storage itself is the adversary. Node failures strike a
// distributed Jacobi solve while the checkpoint tier drops requests,
// tears writes, flips bits at rest — and loses one of its two mirrored
// replicas to a permanent outage mid-run. The supervisor recovers from
// the newest checkpoint line the storage can *prove* (every segment
// fetched, CRC-checked and decoded), falling back to older verified
// lines when the newest one rotted, and the final answer is still
// bit-identical to a failure-free run on pristine storage.
func Example_hardened_storage() {
	// The hardened stack is two mirrored replicas, each integrity-
	// enveloped and retry-wrapped over the chaos driver's store i.
	cfg := autonomic.Config{
		Ranks:       4,
		Nx:          48,
		RowsPerRank: 12,
		Boundary:    100,
		Iterations:  60,
		CkptEvery:   5,
		ComputeTime: 200 * des.Millisecond,
		Seed:        11,
		Replicas:    2,
	}

	// What fails is text: node failures, and the decay of each replica
	// of a two-way mirror. Replica A (store 0) is clean but dies for good
	// after 40 storage operations; replica B (store 1) survives but
	// tears writes, rots at rest and drops requests.
	cfg.Faults = `crash every exp 3s
storage-decay die-after 40 seed 1 store 0
storage-decay transient 0.10 torn 0.08 corrupt 0.08 seed 2 store 1`
	cfg.RestartOverhead = 500 * des.Millisecond

	out, err := autonomic.ValidateReplay(cfg)
	if err != nil {
		log.Fatal(err)
	}
	// The ground truth is the validator's failure-free reference run.
	clean, rep := out.Reference, out.Injected

	fmt.Printf("distributed Jacobi, %d ranks, %d iterations, checkpoint every %d\n",
		cfg.Ranks, cfg.Iterations, cfg.CkptEvery)
	fmt.Printf("storage: 2-way mirror; replica A dies after 40 ops, replica B decays\n\n")

	fmt.Printf("%-30s %14s %14s\n", "", "pristine", "hardened+faults")
	fmt.Printf("%-30s %14d %14d\n", "node failures survived", clean.Failures, rep.Failures)
	fmt.Printf("%-30s %14d %14d\n", "degraded recoveries", clean.DegradedRecoveries, rep.DegradedRecoveries)
	fmt.Printf("%-30s %14d %14d\n", "checkpoints refused", clean.CheckpointFailures, rep.CheckpointFailures)
	fmt.Printf("%-30s %14d %14d\n", "iterations rolled back", clean.LostIterations, rep.LostIterations)
	fmt.Printf("%-30s %13.1f%% %13.1f%%\n", "efficiency", clean.Efficiency*100, rep.Efficiency*100)
	fmt.Printf("%-30s %14.6f %14.6f\n", "final checksum", clean.Checksum, rep.Checksum)

	stA, stB, mst := rep.Decay[0], rep.Decay[1], rep.Mirror
	fmt.Printf("\nwhat the storage tier did, and what the stack absorbed:\n")
	fmt.Printf("  replica A: %d ops served, then permanently down (%d rejected)\n",
		stA.Ops-stA.Unavailable, stA.Unavailable)
	fmt.Printf("  replica B: %d transients, %d torn writes, %d bit flips\n",
		stB.Transients, stB.TornWrites, stB.Corruptions)
	fmt.Printf("  retries absorbed: %d (A) + %d (B)\n",
		rep.Retry[0].Retries, rep.Retry[1].Retries)
	fmt.Printf("  mirror: %d failover reads, %d read-repairs, %d degraded writes\n",
		mst.FailoverReads, mst.ReadRepairs, mst.DegradedPuts)

	if rep.Checksum == clean.Checksum {
		fmt.Printf("\nbit-identical result through %d node failures on decaying storage.\n", rep.Failures)
	} else {
		fmt.Println("\nRESULT DIVERGED — recovery is broken")
	}

	// Output:
	// distributed Jacobi, 4 ranks, 60 iterations, checkpoint every 5
	// storage: 2-way mirror; replica A dies after 40 ops, replica B decays
	//
	//                                      pristine hardened+faults
	// node failures survived                      0             13
	// degraded recoveries                         0              7
	// checkpoints refused                         0              0
	// iterations rolled back                      0             76
	// efficiency                              99.5%          34.9%
	// final checksum                   76827.509159   76827.509159
	//
	// what the storage tier did, and what the stack absorbed:
	//   replica A: 40 ops served, then permanently down (391 rejected)
	//   replica B: 41 transients, 8 torn writes, 4 bit flips
	//   retries absorbed: 0 (A) + 41 (B)
	//   mirror: 249 failover reads, 0 read-repairs, 72 degraded writes
	//
	// bit-identical result through 13 node failures on decaying storage.
}

// Quickstart: measure one application's incremental-checkpointing
// profile and print the feasibility verdict — the paper's core question
// ("is the required bandwidth within what the network and disk
// provide?") in a dozen lines.
func Example_quickstart() {
	// Run NAS LU on 8 ranks; Measure samples every 1 s.
	m, err := core.Measure(core.MeasureConfig{App: "LU", Ranks: 8})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s on %d ranks, timeslice %v\n", m.App, m.Ranks, m.Timeslice)
	fmt.Printf("  memory footprint     : %.1f MB\n", m.AvgFootprintMB)
	fmt.Printf("  incremental bandwidth: avg %.1f MB/s, max %.1f MB/s\n", m.AvgIBMBs, m.MaxIBMBs)
	fmt.Printf("  instrumentation cost : %.1f%% slowdown\n", m.Slowdown*100)
	fmt.Printf("  headroom             : %.0fx over QsNet, %.0fx over SCSI disk\n",
		m.NetworkHeadroom, m.DiskHeadroom)
	if m.Feasible() {
		fmt.Println("  verdict              : incremental checkpointing is FEASIBLE")
	} else {
		fmt.Println("  verdict              : NOT feasible at this timeslice")
	}

	// The per-timeslice trace is available as series, e.g. the first
	// few IWS samples:
	fmt.Println("\n  first IWS samples (MB):")
	for _, p := range m.IWS.Points[:min(5, len(m.IWS.Points))] {
		fmt.Printf("    t=%5.1fs  %6.2f\n", p.T, p.V)
	}

	// Output:
	// LU on 8 ranks, timeslice 1.000s
	//   memory footprint     : 17.7 MB
	//   incremental bandwidth: avg 12.5 MB/s, max 12.5 MB/s
	//   instrumentation cost : 1.0% slowdown
	//   headroom             : 72x over QsNet, 26x over SCSI disk
	//   verdict              : incremental checkpointing is FEASIBLE
	//
	//   first IWS samples (MB):
	//     t=  1.0s   12.48
	//     t=  2.0s   12.48
	//     t=  3.0s   12.48
	//     t=  4.0s   12.48
	//     t=  5.0s   12.48
}

// RDMA drain protocol: why OS-bypass delivery and incremental
// checkpointing fight, and how the checkpoint-time drain/re-register
// protocol reconciles them (§4.2 of the paper).
//
// A ring of ranks exchanges one-sided puts that the NIC writes straight
// into registered application memory — no fault, no tracker entry, so
// mprotect-based dirty tracking silently under-counts and incremental
// checkpoints omit the NIC-written windows. The example crashes the same
// seeded run twice, mid-flight:
//
//   - naive Direct: the restored line misses the silent pages, and the
//     replay is unfaithful — the measured corruption the under-count
//     causes.
//
//   - drain protocol: every checkpoint boundary quiesces, drains
//     in-flight puts, deregisters (replaying the suppressed faults),
//     cuts the line, re-registers, reconnects — and the same crash
//     replays bit-exactly.
func Example_rdma_drain() {
	config := func(mode autonomic.RDMAMode) autonomic.Config {
		return autonomic.Config{
			Workload: autonomic.PutFactory{
				Pages: 4, PutEvery: 1, Seed: 2.5,
				ComputeTime: 50 * des.Millisecond,
			},
			Ranks:       3,
			Iterations:  12,
			CkptEvery:   3,
			ComputeTime: 50 * des.Millisecond,
			Seed:        11,
			RDMA:        mode,
			// One node dies mid-run, past the second committed line,
			// while puts are in flight.
			Faults:   "crash at 400ms..410ms",
			Replicas: 1,
		}
	}

	fmt.Println("one-sided-Put ring, 3 ranks, 12 iterations, line every 3, NIC writing Direct")
	fmt.Println()

	naive, err := autonomic.ValidateReplay(config(autonomic.RDMANaive))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("naive Direct (no drain):")
	fmt.Printf("  NIC bypass traffic:        %6.1f KB\n", float64(naive.Injected.DirectBypassBytes)/1024)
	fmt.Printf("  silent dirty (untracked):  %6.1f KB\n", float64(naive.Injected.SilentDirtyBytes)/1024)
	fmt.Printf("  baked into committed lines:%6.1f KB\n", float64(naive.Injected.CheckpointSilentBytes)/1024)
	if naive.BitExact() {
		fmt.Println("  crash-restore-replay: bit-exact — the under-count had no teeth this run")
	} else {
		fmt.Println("  crash-restore-replay: UNFAITHFUL (expected) — the restored line misses the NIC-written pages")
	}
	fmt.Println()

	out, err := autonomic.ValidateReplay(config(autonomic.RDMADrain))
	if err != nil {
		log.Fatal(err)
	}
	inj := out.Injected
	fmt.Println("drain protocol (quiesce → drain → deregister → checkpoint → reregister → reconnect):")
	fmt.Printf("  drain rounds:              %6d\n", inj.DrainRounds)
	fmt.Printf("  silent dirty reconciled:   %6.1f KB\n", float64(inj.SilentDirtyBytes)/1024)
	fmt.Printf("  baked into committed lines:%6.1f KB\n", float64(inj.CheckpointSilentBytes)/1024)
	fmt.Print("  per-phase latency (µs):   ")
	for p := 0; p < mpi.NumDrainPhases; p++ {
		fmt.Printf(" %s=%.0f", mpi.DrainPhase(p), float64(inj.DrainPhaseTime[p])/float64(des.Microsecond))
	}
	fmt.Println()

	for i, d := range inj.SpaceDigests {
		fmt.Printf("  rank %d digest: %016x vs %016x\n", i, d, out.Reference.SpaceDigests[i])
	}
	if !out.BitExact() {
		fmt.Println("\ndrain replay is UNFAITHFUL — the protocol's equivalence claim is broken")
		return
	}
	fmt.Printf("\ndrain replay is BIT-EXACT: crashed at %v with puts in flight, restored, replayed — same bytes.\n",
		inj.FailureLog[0].At)

	// Output:
	// one-sided-Put ring, 3 ranks, 12 iterations, line every 3, NIC writing Direct
	//
	// naive Direct (no drain):
	//   NIC bypass traffic:         624.0 KB
	//   silent dirty (untracked):   624.0 KB
	//   baked into committed lines:  96.0 KB
	//   crash-restore-replay: UNFAITHFUL (expected) — the restored line misses the NIC-written pages
	//
	// drain protocol (quiesce → drain → deregister → checkpoint → reregister → reconnect):
	//   drain rounds:                   4
	//   silent dirty reconciled:    624.0 KB
	//   baked into committed lines:   0.0 KB
	//   per-phase latency (µs):    quiesce=20 drain=80 deregister=50 checkpoint=20410 reregister=50 reconnect=400
	//   rank 0 digest: 350045d14b7f8461 vs 350045d14b7f8461
	//   rank 1 digest: ef8f8150a8504c07 vs ef8f8150a8504c07
	//   rank 2 digest: af8b36d74138daa4 vs af8b36d74138daa4
	//
	// drain replay is BIT-EXACT: crashed at 0.402s with puts in flight, restored, replayed — same bytes.
}

// Sage sweep: the sensitivity analysis of §6.4 — how the bandwidth
// requirement scales with the checkpoint timeslice and the memory
// footprint (Figures 3 and 4), run over all four Sage configurations.
func Example_sage_sweep() {
	timeslices := []des.Time{
		des.Second, 2 * des.Second, 5 * des.Second,
		10 * des.Second, 20 * des.Second,
	}
	res, err := experiments.Fig3(experiments.RunOpts{Ranks: 16, Seed: 7}, timeslices)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Average incremental bandwidth (MB/s) per process:")
	fmt.Print(experiments.FormatCurves(res.AvgIB))

	fmt.Println("\nFraction of the memory image written per timeslice (%):")
	fmt.Print(experiments.FormatCurves(res.Ratio))

	// The paper's two §6.4.1 observations, verified on the fly.
	at := func(c experiments.Curve, i int) float64 { return c.Points[i].Value }
	fmt.Println("\nObservations:")
	fmt.Printf("  - bandwidth falls with the timeslice: Sage-1000MB %.1f → %.1f MB/s\n",
		at(res.AvgIB[0], 0), at(res.AvgIB[0], len(timeslices)-1))
	fmt.Printf("  - growth with footprint is sublinear: 2x memory needs %.2fx bandwidth\n",
		at(res.AvgIB[0], 0)/at(res.AvgIB[1], 0))

	// Output:
	// Average incremental bandwidth (MB/s) per process:
	// timeslice(s)    Sage-1000MB     Sage-500MB     Sage-100MB      Sage-50MB
	//          1.0          81.12          51.79          16.04           9.60
	//          2.0          62.03          39.96          12.35           7.38
	//          5.0          43.11          24.48           7.50           4.27
	//         10.0          26.38          15.23           4.47           3.13
	//         20.0          14.87           8.92           3.22           2.27
	//
	// Fraction of the memory image written per timeslice (%):
	// timeslice(s)    Sage-1000MB     Sage-500MB     Sage-100MB      Sage-50MB
	//          1.0          10.38          12.69          18.17          20.87
	//          2.0          15.89          19.59          27.98          32.22
	//          5.0          27.61          30.10          42.46          48.00
	//         10.0          33.80          37.44          50.68          71.42
	//         20.0          38.10          43.87          72.96          81.06
	//
	// Observations:
	//   - bandwidth falls with the timeslice: Sage-1000MB 81.1 → 14.9 MB/s
	//   - growth with footprint is sublinear: 2x memory needs 1.57x bandwidth
}

// Self-healing: the autonomic-computing vision the paper motivates in
// §1, end to end. A distributed Jacobi solve (real halo exchange over the
// simulated QsNet) runs under coordinated incremental checkpointing while
// node failures strike every few seconds; the supervisor restores every
// rank from the last consistent checkpoint line, rebuilds the
// communicator, and resumes — and the final answer is bit-identical to a
// failure-free run.
func Example_self_healing() {
	cfg := autonomic.Config{
		Ranks:       8,
		Nx:          64,
		RowsPerRank: 16,
		Boundary:    100,
		Iterations:  60,
		CkptEvery:   5,
		ComputeTime: 250 * des.Millisecond,
		Seed:        11,
	}

	// Ground truth: no failures.
	clean, err := autonomic.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Same computation on a machine failing every ~4 seconds.
	cfg.Faults = "crash every exp 4s"
	cfg.RestartOverhead = des.Second
	rep, err := autonomic.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("distributed Jacobi, %d ranks, %d iterations, checkpoint every %d\n\n",
		cfg.Ranks, cfg.Iterations, cfg.CkptEvery)
	fmt.Printf("%-28s %14s %14s\n", "", "no failures", "MTBF 4s")
	fmt.Printf("%-28s %14d %14d\n", "failures survived", clean.Failures, rep.Failures)
	fmt.Printf("%-28s %14d %14d\n", "iterations rolled back", clean.LostIterations, rep.LostIterations)
	fmt.Printf("%-28s %14.1f %14.1f\n", "elapsed (virtual s)", clean.Elapsed.Seconds(), rep.Elapsed.Seconds())
	fmt.Printf("%-28s %13.1f%% %13.1f%%\n", "efficiency", clean.Efficiency*100, rep.Efficiency*100)
	fmt.Printf("%-28s %14.1f %14.1f\n", "checkpoint volume (MB)", clean.CheckpointVolumeMB, rep.CheckpointVolumeMB)
	fmt.Printf("%-28s %14.6f %14.6f\n", "final checksum", clean.Checksum, rep.Checksum)

	if rep.Checksum == clean.Checksum {
		fmt.Printf("\nself-healed through %d failures with a bit-identical result.\n", rep.Failures)
	} else {
		fmt.Println("\nRESULT DIVERGED — recovery is broken")
	}

	// Output:
	// distributed Jacobi, 8 ranks, 60 iterations, checkpoint every 5
	//
	//                                 no failures        MTBF 4s
	// failures survived                         0              4
	// iterations rolled back                    0              2
	// elapsed (virtual s)                    15.1           19.3
	// efficiency                            99.6%          77.7%
	// checkpoint volume (MB)                  2.8            2.8
	// final checksum                167658.380661  167658.380661
	//
	// self-healed through 4 failures with a bit-identical result.
}

// Where the time went: a supervised run's virtual time is one ledger.
// The supervisor is in exactly one state at every instant — computing,
// committing a line, down after a failure, or redoing the slice a
// failure cut — so the states partition the elapsed time with no
// remainder. Costs are a different kind of number: CommitTime is every
// line's pause summed, and a failure's Downtime its own span, so nested
// failures' downtimes overlap where the ledger's down slice is their
// union. The run is the heal-stencil schedule on a 4-rank stencil with
// the heartbeat detector on.
func Example_time_ledger() {
	cfg := autonomic.Config{
		Ranks:           4,
		Nx:              32,
		RowsPerRank:     8,
		Boundary:        9,
		Iterations:      40,
		CkptEvery:       5,
		ComputeTime:     250 * des.Millisecond,
		RestartOverhead: des.Second,
		HeartbeatPeriod: 50 * des.Millisecond,
		TwoPhaseCommit:  true,
		Replicas:        2,
		Seed:            13,
		Faults: `
crash at 2s..12s count 2 jitter 300ms
commit-crash at 1s..20s count 1
storage-outage at 7s..8s
bitflip at 1200ms..15s count 4
`,
	}
	rep, err := autonomic.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("distributed Jacobi, %d ranks, %d iterations, checkpoint every %d, seed %d\n",
		cfg.Ranks, cfg.Iterations, cfg.CkptEvery, cfg.Seed)
	fmt.Printf("%d failures, %d iterations rolled back\n\n", rep.Failures, rep.LostIterations)
	var sum des.Time
	for st, d := range rep.Ledger {
		fmt.Printf("%-14s %10v %6.1f%%\n", autonomic.State(st), d, 100*d.Seconds()/rep.Elapsed.Seconds())
		sum += d
	}
	fmt.Printf("%-14s %10v\n\n", "elapsed", rep.Elapsed)

	fmt.Printf("compute = %d iterations x %v + %.0f us of halo exchange\n",
		rep.Iterations+rep.LostIterations, cfg.ComputeTime, float64(rep.ExchangeTime)/float64(des.Microsecond))
	var downs des.Time
	for _, ev := range rep.FailureLog {
		downs += ev.Downtime
	}
	fmt.Printf("per-failure downtimes sum to %v; down, their union, is %v\n", downs, rep.Ledger[autonomic.Down])
	fmt.Printf("commit cost %v over %d lines; the commit slice is %v\n",
		rep.CommitTime, rep.CommittedLines, rep.Ledger[autonomic.Commit])
	if sum == rep.Elapsed {
		fmt.Println("\nthe ledger closes: its states sum to the elapsed time exactly.")
	} else {
		fmt.Printf("\nLEDGER OPEN: states sum to %d ns, elapsed %d ns\n", sum, rep.Elapsed)
	}

	// Output:
	// distributed Jacobi, 4 ranks, 40 iterations, checkpoint every 5, seed 13
	// 3 failures, 5 iterations rolled back
	//
	// compute           11.250s   77.4%
	// registration       0.000s    0.0%
	// commit             0.040s    0.3%
	// parity             0.000s    0.0%
	// quiesce            0.000s    0.0%
	// drain              0.000s    0.0%
	// deregister         0.000s    0.0%
	// reregister         0.000s    0.0%
	// reconnect          0.000s    0.0%
	// down               3.015s   20.7%
	// lost               0.234s    1.6%
	// elapsed           14.540s
	//
	// compute = 45 iterations x 0.250s + 109 us of halo exchange
	// per-failure downtimes sum to 4.021s; down, their union, is 3.015s
	// commit cost 0.040s over 8 lines; the commit slice is 0.040s
	//
	// the ledger closes: its states sum to the elapsed time exactly.
}
