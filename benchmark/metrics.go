package main

import (
	"fmt"
	"sort"
	"strings"
)

// metricDef is one entry of the benchmark's metric catalogue. The
// catalogue is the single source of truth: BENCHMARK.json and
// METRICS.md are generated from it (-print-spec, -print-catalogue) and
// a test keeps all three equal; the harness refuses to report a run
// whose metric set differs from it.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median an end-to-end metric may
	// worsen by before a change counts as a regression.
	Bound float64
	// Source of a per-layer metric: "c" a public counter read after the
	// op, "d" a timing decorator, "l" a ladder rung, "h" the harness.
	Source string
	// On lists the workloads that measure a per-layer metric; on every
	// other workload its layer is idle and it is reported as 0.
	On []string
	// Moves names the end-to-end metric and workload a change to this
	// rung should move.
	Moves string
}

const (
	wIWS    = "iws-paper"
	wShard  = "iws-sharded"
	wSage   = "protect-sage"
	wHeal   = "heal-stencil"
	wMulti  = "heal-multilevel"
	wStore  = "store-service"
	srcC    = "c"
	srcD    = "d"
	srcL    = "l"
	srcH    = "h"
	lower   = "lower"
	higher  = "higher"
	noMoves = "none: simulated result, must stay identical under a speed-only change"
)

var (
	onAll    = []string{wIWS, wShard, wSage, wHeal, wMulti, wStore}
	onIWS    = []string{wIWS, wShard}
	onHeals  = []string{wHeal, wMulti}
	onWorlds = []string{wIWS, wShard, wHeal, wMulti}
	onStack  = []string{wSage, wHeal, wMulti}
	onPages  = []string{wIWS, wShard, wSage}
)

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off. Bounds: see README "Bounds".
var endToEnd = []metricDef{
	{Name: "op_cpu_ms_p50", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "allocs_per_op", Unit: "count", Better: lower, Bound: 0.05},
	{Name: "alloc_MB_per_op", Unit: "MB", Better: lower, Bound: 0.05},
	{Name: "retained_heap_MB", Unit: "MB", Better: lower, Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
}

// perLayer are the per-layer metrics of a traced run, grouped by the
// internal/ package they measure.
var perLayer = []metricDef{
	// bitset
	{Name: "bitset.add_ns", Unit: "ns", Better: lower, Source: srcL, On: onPages, Moves: "op_cpu_ms_p50 on protect-sage, iws-paper"},
	{Name: "bitset.sweep_ns_per_set_bit", Unit: "ns", Better: lower, Source: srcL, On: onPages, Moves: "op_cpu_ms_p50 on protect-sage, iws-paper"},
	{Name: "bitset.union_ns_per_word", Unit: "ns", Better: lower, Source: srcL, On: onPages, Moves: "op_cpu_ms_p50 on protect-sage"},

	// mem
	{Name: "mem.faults_per_op", Unit: "count", Better: lower, Source: srcC, On: onWorlds, Moves: noMoves},
	{Name: "mem.written_MB_per_op", Unit: "MB", Better: lower, Source: srcC, On: onWorlds, Moves: noMoves},
	{Name: "mem.write_range_cold_ns_per_page", Unit: "ns", Better: lower, Source: srcL, On: onPages, Moves: "op_cpu_ms_p50 on iws-paper, iws-sharded, protect-sage"},
	{Name: "mem.write_range_hot_ns_per_page", Unit: "ns", Better: lower, Source: srcL, On: onPages, Moves: "op_cpu_ms_p50 on iws-paper, iws-sharded, protect-sage"},
	{Name: "mem.backed_write_MBps", Unit: "MB/s", Better: higher, Source: srcL, On: onHeals, Moves: "op_cpu_ms_p50 on heal-stencil, heal-multilevel"},
	{Name: "mem.digest_MBps", Unit: "MB/s", Better: higher, Source: srcL, On: onHeals, Moves: "op_cpu_ms_p50 on heal-stencil, heal-multilevel"},

	// tracker
	{Name: "tracker.faults_per_op", Unit: "count", Better: lower, Source: srcC, On: onIWS, Moves: noMoves},
	{Name: "tracker.samples_per_op", Unit: "count", Better: lower, Source: srcD, On: onIWS, Moves: noMoves},
	{Name: "tracker.deliveries_per_op", Unit: "count", Better: lower, Source: srcD, On: onIWS, Moves: noMoves},
	{Name: "tracker.sim_overhead_s", Unit: "s", Better: lower, Source: srcC, On: onIWS, Moves: noMoves},
	{Name: "tracker.attach_cost_pct", Unit: "%", Better: lower, Source: srcL, On: onIWS, Moves: "op_cpu_ms_p50 on iws-paper, iws-sharded; none elsewhere"},

	// workload
	{Name: "workload.new_ms", Unit: "ms", Better: lower, Source: srcL, On: onPages, Moves: "op_cpu_ms_p50, alloc_MB_per_op on iws-*, protect-sage"},
	{Name: "workload.runner_ms_per_op", Unit: "ms", Better: lower, Source: srcL, On: onPages, Moves: "op_cpu_ms_p50 on iws-*, protect-sage (the des+mpi+mem floor)"},

	// des
	{Name: "des.events_per_op", Unit: "count", Better: lower, Source: srcC, On: onWorlds, Moves: noMoves},
	{Name: "des.events_per_cpu_s", Unit: "1/s", Better: higher, Source: srcC, On: onWorlds, Moves: "op_cpu_ms_p50 on the same workload (events_per_op over it)"},
	{Name: "des.crit_path_events_per_op", Unit: "count", Better: lower, Source: srcC, On: onIWS, Moves: noMoves},
	{Name: "des.concurrency", Unit: "ratio", Better: higher, Source: srcC, On: onIWS, Moves: "op_cpu_ms_p50 on iws-sharded, on hosts with idle cores"},
	{Name: "des.schedule_ns_per_event", Unit: "ns", Better: lower, Source: srcL, On: onIWS, Moves: "op_cpu_ms_p50 on iws-paper"},
	{Name: "des.epoch_ns", Unit: "ns", Better: lower, Source: srcL, On: []string{wShard}, Moves: "op_cpu_ms_p50 on iws-sharded"},
	{Name: "des.post_ns_per_msg", Unit: "ns", Better: lower, Source: srcL, On: []string{wShard}, Moves: "op_cpu_ms_p50 on iws-sharded"},

	// mpi
	{Name: "mpi.sends_per_op", Unit: "count", Better: lower, Source: srcC, On: onWorlds, Moves: noMoves},
	{Name: "mpi.sent_MB_per_op", Unit: "MB", Better: lower, Source: srcC, On: onWorlds, Moves: noMoves},
	{Name: "mpi.collectives_per_op", Unit: "count", Better: lower, Source: srcC, On: onWorlds, Moves: noMoves},
	{Name: "mpi.barrier_wait_sim_s", Unit: "s", Better: lower, Source: srcC, On: onWorlds, Moves: noMoves},
	{Name: "mpi.send_ns_per_msg", Unit: "ns", Better: lower, Source: srcL, On: onIWS, Moves: "op_cpu_ms_p50 on iws-*; small on heal-*"},
	{Name: "mpi.allreduce_ns_per_call", Unit: "ns", Better: lower, Source: srcL, On: onIWS, Moves: "op_cpu_ms_p50 on iws-*"},

	// kernels
	{Name: "kernels.stencil_ns_per_cell", Unit: "ns", Better: lower, Source: srcL, On: onHeals, Moves: "op_cpu_ms_p50 on heal-stencil, heal-multilevel"},

	// ckpt
	{Name: "ckpt.checkpoints_per_op", Unit: "count", Better: lower, Source: srcC, On: []string{wSage}, Moves: noMoves},
	{Name: "ckpt.full_pages_per_op", Unit: "count", Better: lower, Source: srcC, On: []string{wSage}, Moves: noMoves},
	{Name: "ckpt.delta_pages_per_op", Unit: "count", Better: lower, Source: srcC, On: []string{wSage}, Moves: noMoves},
	{Name: "ckpt.payload_MB_per_op", Unit: "MB", Better: lower, Source: srcC, On: onStack, Moves: noMoves},
	{Name: "ckpt.cow_MB_per_op", Unit: "MB", Better: lower, Source: srcC, On: []string{wSage}, Moves: noMoves},
	{Name: "ckpt.MB_per_line", Unit: "MB", Better: lower, Source: srcC, On: onStack, Moves: noMoves + " (the paper's cost quantity)"},
	{Name: "ckpt.global_checkpoint_ms_p50", Unit: "ms", Better: lower, Source: srcL, On: []string{wSage}, Moves: "op_cpu_ms_p50, alloc_MB_per_op on protect-sage"},
	{Name: "ckpt.encode_MBps", Unit: "MB/s", Better: higher, Source: srcL, On: []string{wSage, wHeal}, Moves: "op_cpu_ms_p50 on protect-sage, heal-stencil"},
	{Name: "ckpt.allocs_per_segment_encode", Unit: "count", Better: lower, Source: srcL, On: []string{wSage, wHeal}, Moves: "allocs_per_op on protect-sage, heal-stencil"},
	{Name: "ckpt.decode_MBps", Unit: "MB/s", Better: higher, Source: srcL, On: []string{wHeal}, Moves: "op_cpu_ms_p50 on heal-stencil"},
	{Name: "ckpt.verify_line_ms", Unit: "ms", Better: lower, Source: srcL, On: []string{wHeal}, Moves: "op_cpu_ms_p50 on heal-stencil"},
	{Name: "ckpt.restore_all_ms", Unit: "ms", Better: lower, Source: srcL, On: []string{wHeal}, Moves: "op_cpu_ms_p50, alloc_MB_per_op on heal-stencil"},
	{Name: "ckpt.restore_MBps", Unit: "MB/s", Better: higher, Source: srcL, On: []string{wHeal}, Moves: "op_cpu_ms_p50 on heal-stencil"},

	// storage
	{Name: "storage.puts_per_op", Unit: "count", Better: lower, Source: srcD, On: onStack, Moves: noMoves},
	{Name: "storage.gets_per_op", Unit: "count", Better: lower, Source: srcD, On: onStack, Moves: noMoves},
	{Name: "storage.put_MB_per_op", Unit: "MB", Better: lower, Source: srcD, On: onStack, Moves: noMoves},
	{Name: "storage.get_MB_per_op", Unit: "MB", Better: lower, Source: srcD, On: onStack, Moves: noMoves},
	{Name: "storage.retries_per_op", Unit: "count", Better: lower, Source: srcC, On: onStack, Moves: noMoves},
	{Name: "storage.corrupt_reads_per_op", Unit: "count", Better: lower, Source: srcC, On: onStack, Moves: noMoves},
	{Name: "storage.read_repairs_per_op", Unit: "count", Better: lower, Source: srcC, On: onStack, Moves: noMoves},
	{Name: "storage.stored_bytes_per_payload_byte", Unit: "ratio", Better: lower, Source: srcD, On: onStack, Moves: noMoves},
	{Name: "storage.put_ms_per_op", Unit: "ms", Better: lower, Source: srcD, On: onStack, Moves: "op_cpu_ms_p50 on protect-sage, heal-stencil"},
	{Name: "storage.get_ms_per_op", Unit: "ms", Better: lower, Source: srcD, On: onStack, Moves: "op_cpu_ms_p50 on heal-stencil"},
	{Name: "storage.mirror_self_ms", Unit: "ms", Better: lower, Source: srcD, On: onStack, Moves: "op_cpu_ms_p50 on protect-sage, heal-stencil"},
	{Name: "storage.resilient_self_ms", Unit: "ms", Better: lower, Source: srcD, On: onStack, Moves: "op_cpu_ms_p50 on protect-sage, heal-stencil"},
	{Name: "storage.integrity_self_ms", Unit: "ms", Better: lower, Source: srcD, On: onStack, Moves: "op_cpu_ms_p50, alloc_MB_per_op on protect-sage, heal-stencil"},
	{Name: "storage.mem_self_ms", Unit: "ms", Better: lower, Source: srcD, On: onStack, Moves: "op_cpu_ms_p50 on protect-sage, heal-stencil"},
	{Name: "storage.seal_MBps", Unit: "MB/s", Better: higher, Source: srcL, On: []string{wSage, wHeal}, Moves: "op_cpu_ms_p50 on protect-sage, heal-stencil"},
	{Name: "storage.open_MBps", Unit: "MB/s", Better: higher, Source: srcL, On: []string{wSage, wHeal}, Moves: "op_cpu_ms_p50 on heal-stencil"},

	// redundancy
	{Name: "redundancy.encodes_per_op", Unit: "count", Better: lower, Source: srcC, On: []string{wMulti}, Moves: noMoves},
	{Name: "redundancy.parity_MB_per_op", Unit: "MB", Better: lower, Source: srcC, On: []string{wMulti}, Moves: noMoves},
	{Name: "redundancy.exchange_sim_s", Unit: "s", Better: lower, Source: srcC, On: []string{wMulti}, Moves: noMoves},
	{Name: "redundancy.rebuilds_per_op", Unit: "count", Better: lower, Source: srcC, On: []string{wMulti}, Moves: noMoves},
	{Name: "redundancy.repairs_per_op", Unit: "count", Better: lower, Source: srcC, On: []string{wMulti}, Moves: noMoves},
	{Name: "redundancy.l1_read_MB", Unit: "MB", Better: lower, Source: srcC, On: []string{wMulti}, Moves: noMoves},
	{Name: "redundancy.l2_read_MB", Unit: "MB", Better: lower, Source: srcC, On: []string{wMulti}, Moves: noMoves},
	{Name: "redundancy.l3_read_MB", Unit: "MB", Better: lower, Source: srcC, On: []string{wMulti}, Moves: noMoves + "; 0 while no parity group loses more than m shards"},
	{Name: "redundancy.rs_encode_MBps", Unit: "MB/s", Better: higher, Source: srcL, On: []string{wMulti}, Moves: "op_cpu_ms_p50 on heal-multilevel only"},
	{Name: "redundancy.rs_rebuild_MBps", Unit: "MB/s", Better: higher, Source: srcL, On: []string{wMulti}, Moves: "op_cpu_ms_p50 on heal-multilevel only"},
	{Name: "redundancy.xor_encode_MBps", Unit: "MB/s", Better: higher, Source: srcL, On: []string{wMulti}, Moves: "none today (no workload runs XOR); the codec baseline RS is held against"},
	{Name: "redundancy.frame_encode_MBps", Unit: "MB/s", Better: higher, Source: srcL, On: []string{wMulti}, Moves: "op_cpu_ms_p50 on heal-multilevel only"},
	{Name: "redundancy.frame_parse_MBps", Unit: "MB/s", Better: higher, Source: srcL, On: []string{wMulti}, Moves: "op_cpu_ms_p50 on heal-multilevel only"},
	{Name: "redundancy.encode_line_ms", Unit: "ms", Better: lower, Source: srcL, On: []string{wMulti}, Moves: "op_cpu_ms_p50, alloc_MB_per_op on heal-multilevel only"},
	{Name: "redundancy.exchange_MB_per_line", Unit: "MB", Better: lower, Source: srcL, On: []string{wMulti}, Moves: noMoves},
	{Name: "redundancy.view_rebuild_get_ms", Unit: "ms", Better: lower, Source: srcL, On: []string{wMulti}, Moves: "op_cpu_ms_p50 on heal-multilevel only"},

	// ckptstore
	{Name: "ckptstore.puts_per_op", Unit: "count", Better: lower, Source: srcC, On: []string{wStore}, Moves: noMoves},
	{Name: "ckptstore.acked_MB_per_op", Unit: "MB", Better: higher, Source: srcC, On: []string{wStore}, Moves: noMoves},
	{Name: "ckptstore.sheds_per_op", Unit: "count", Better: lower, Source: srcC, On: []string{wStore}, Moves: noMoves},
	{Name: "ckptstore.quorum_failures_per_op", Unit: "count", Better: lower, Source: srcC, On: []string{wStore}, Moves: noMoves},
	{Name: "ckptstore.coalesced_per_op", Unit: "count", Better: higher, Source: srcC, On: []string{wStore}, Moves: noMoves},
	{Name: "ckptstore.failovers_per_op", Unit: "count", Better: lower, Source: srcC, On: []string{wStore}, Moves: noMoves},
	{Name: "ckptstore.mode_changes_per_op", Unit: "count", Better: lower, Source: srcC, On: []string{wStore}, Moves: noMoves},
	{Name: "ckptstore.put_p99_sim_ms", Unit: "ms", Better: lower, Source: srcC, On: []string{wStore}, Moves: noMoves},
	{Name: "ckptstore.acked_MBps_sim", Unit: "MB/s", Better: higher, Source: srcC, On: []string{wStore}, Moves: noMoves},
	{Name: "ckptstore.frame_encode_MBps", Unit: "MB/s", Better: higher, Source: srcL, On: []string{wStore}, Moves: "op_cpu_ms_p50, alloc_MB_per_op on store-service only"},
	{Name: "ckptstore.frame_decode_MBps", Unit: "MB/s", Better: higher, Source: srcL, On: []string{wStore}, Moves: "op_cpu_ms_p50, alloc_MB_per_op on store-service only"},
	{Name: "ckptstore.handle_put_us", Unit: "us", Better: lower, Source: srcL, On: []string{wStore}, Moves: "op_cpu_ms_p50 on store-service only"},
	{Name: "ckptstore.handle_get_us", Unit: "us", Better: lower, Source: srcL, On: []string{wStore}, Moves: "op_cpu_ms_p50 on store-service only"},

	// autonomic
	{Name: "autonomic.failures_per_op", Unit: "count", Better: lower, Source: srcC, On: onHeals, Moves: noMoves},
	{Name: "autonomic.recoveries_per_op", Unit: "count", Better: lower, Source: srcC, On: onHeals, Moves: noMoves},
	{Name: "autonomic.degraded_recoveries_per_op", Unit: "count", Better: lower, Source: srcC, On: onHeals, Moves: noMoves},
	{Name: "autonomic.lost_iterations_per_op", Unit: "count", Better: lower, Source: srcC, On: onHeals, Moves: noMoves},
	{Name: "autonomic.committed_lines_per_op", Unit: "count", Better: lower, Source: srcC, On: onHeals, Moves: noMoves},
	{Name: "autonomic.aborted_commits_per_op", Unit: "count", Better: lower, Source: srcC, On: onHeals, Moves: noMoves},
	{Name: "autonomic.sim_commit_s", Unit: "s", Better: lower, Source: srcC, On: onHeals, Moves: noMoves},
	{Name: "autonomic.sim_downtime_s", Unit: "s", Better: lower, Source: srcC, On: onHeals, Moves: noMoves},
	{Name: "autonomic.sim_efficiency_pct", Unit: "%", Better: higher, Source: srcC, On: onHeals, Moves: noMoves},
	{Name: "autonomic.reference_ms", Unit: "ms", Better: lower, Source: srcL, On: onHeals, Moves: "op_cpu_ms_p50 on heal-* (the write-only half)"},
	{Name: "autonomic.injected_ms", Unit: "ms", Better: lower, Source: srcL, On: onHeals, Moves: "op_cpu_ms_p50 on heal-* (write plus verify, restore, replay)"},
	{Name: "autonomic.attach_ms_per_recovery", Unit: "ms", Better: lower, Source: srcD, On: onHeals, Moves: "op_cpu_ms_p50 on heal-*"},

	// core
	{Name: "core.paper_err_pct", Unit: "%", Better: lower, Source: srcC, On: onIWS, Moves: noMoves + " (simulator accuracy against Tables 2 and 4)"},

	// harness
	{Name: "harness.samples", Unit: "count", Better: higher, Source: srcH, On: onAll, Moves: "diagnostic"},
	{Name: "harness.op_ms_p50", Unit: "ms", Better: lower, Source: srcH, On: onAll, Moves: "diagnostic: wall-clock per op, what a user waits; unbounded because host steal decides it on a shared box"},
	{Name: "harness.op_ms_p90", Unit: "ms", Better: lower, Source: srcH, On: onAll, Moves: "diagnostic: on a shared 2-core box the tail measures the neighbours"},
	{Name: "harness.op_ms_iqr", Unit: "ms", Better: lower, Source: srcH, On: onAll, Moves: "diagnostic: noise in harness.op_ms_p50"},
	{Name: "harness.host_steal_pct", Unit: "%", Better: lower, Source: srcH, On: onAll, Moves: "diagnostic: CPU the hypervisor gave to neighbours; explains wall-clock noise"},
	{Name: "harness.traced_op_cpu_ms_p50", Unit: "ms", Better: lower, Source: srcH, On: onAll, Moves: "diagnostic"},
	{Name: "harness.trace_overhead_pct", Unit: "%", Better: lower, Source: srcH, On: onAll, Moves: "diagnostic: what the decorators cost"},
	{Name: "harness.failed_ops_pct", Unit: "%", Better: lower, Source: srcH, On: onAll, Moves: "must be 0"},
	{Name: "harness.peak_rss_MB", Unit: "MB", Better: lower, Source: srcH, On: onAll, Moves: "diagnostic"},
	{Name: "harness.gc_cycles_per_op", Unit: "count", Better: lower, Source: srcH, On: onAll, Moves: "op_cpu_ms_p50 beyond a rung's own share, when alloc_MB_per_op falls"},
	{Name: "harness.gc_pause_ms_per_op", Unit: "ms", Better: lower, Source: srcH, On: onAll, Moves: "op_cpu_ms_p50 beyond a rung's own share, when alloc_MB_per_op falls"},
	{Name: "harness.goroutines_end", Unit: "count", Better: lower, Source: srcH, On: onAll, Moves: "retained_heap_MB on iws-sharded (the des.Group worker leak)"},
	{Name: "harness.gomaxprocs", Unit: "count", Better: higher, Source: srcH, On: onAll, Moves: "recorded, pinned to 2"},
}

func (m metricDef) on(workload string) bool {
	for _, w := range m.On {
		if w == workload {
			return true
		}
	}
	return false
}

// layer is the part of a per-layer metric's name before the first dot.
func (m metricDef) layer() string {
	if i := strings.IndexByte(m.Name, '.'); i >= 0 {
		return m.Name[:i]
	}
	return ""
}

// conform checks a run's metric set against the catalogue: every
// declared metric the workload measures must be present, nothing
// undeclared or idle may be, and idle ones are filled in as 0.
func conform(defs []metricDef, workload string, got map[string]float64) error {
	declared := make(map[string]bool, len(defs))
	var problems []string
	for _, d := range defs {
		declared[d.Name] = true
		_, have := got[d.Name]
		measured := len(d.On) == 0 || d.on(workload)
		switch {
		case measured && !have:
			problems = append(problems, "missing "+d.Name)
		case !measured && have:
			problems = append(problems, d.Name+" reported on a workload the catalogue calls idle")
		case !measured:
			got[d.Name] = 0
		}
	}
	for name := range got {
		if !declared[name] {
			problems = append(problems, "undeclared "+name)
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return fmt.Errorf("metric set does not match the catalogue: %s", strings.Join(problems, "; "))
	}
	return nil
}
