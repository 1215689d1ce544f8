package experiments

import (
	"fmt"
	"strings"

	"repro/internal/autonomic"
	"repro/internal/des"
	"repro/internal/mpi"
)

// A18: RDMA direct-write checkpointing ablation. The paper's §4.2 flags
// the conflict between OS-bypass interconnects and mprotect-based write
// tracking; this experiment measures it. The one-sided-Put ring
// (kernels.DistPut) runs under three delivery regimes at varying message
// rate (put interval) and registered footprint (window pages):
//
//   - bounce: every NIC write lands in a bounce arena and is copied out
//     by the CPU, faulting — the paper's workaround. The tracker sees
//     every write (silent = 0), but that is only half of correctness:
//     at put interval 1 a one-sided write is in flight across every
//     checkpoint line, the line is cut before it lands, and a restore
//     loses the message — an inconsistent cut, exact=no despite perfect
//     tracking.
//   - naive: Direct delivery into registered regions with no drain — the
//     fast path, but DMA writes are invisible to the tracker, so
//     incremental lines under-count (the silent columns) and a
//     crash-restore replays corrupt state (exact=no at every rate).
//   - drain: Direct delivery plus the checkpoint-time drain/re-register
//     protocol — DMA speed between checkpoints, in-flight traffic
//     landed and dirty sets reconciled before every line. The only
//     regime that is bit-exact at every message rate, because it fixes
//     both failure modes: cut consistency and tracker fidelity.
//
// Every row runs a seeded mid-run crash through the replay validator:
// the exact column is the end-to-end correctness verdict.

// RDMARow is one (regime, put interval, window pages) cell of A18.
type RDMARow struct {
	// Regime is "bounce", "naive" or "drain".
	Regime string
	// PutEvery is the ring's put interval (iterations between one-sided
	// writes — lower is a higher message rate); Pages is the per-buffer
	// page count (the registered footprint scales with it).
	PutEvery, Pages int
	// Elapsed and Efficiency are the failure-free run's end-to-end
	// numbers; CommitTime its cumulative stop-and-copy pause.
	Elapsed    des.Time
	Efficiency float64
	CommitTime des.Time
	// DrainTime is the cumulative drain-protocol cost outside the commit
	// itself (all phases except Checkpoint); RegisterTime the team-
	// startup registration cost. Both zero outside the drain regime.
	DrainTime    des.Time
	RegisterTime des.Time
	// DrainTimeouts counts ranks degraded to bounce mode by the drain
	// deadline.
	DrainTimeouts int
	// DirectBypassKB is the NIC traffic that bypassed the tracker;
	// SilentKB the portion that hit protected pages (the measured IWS
	// under-count); ChainSilentKB the under-count actually baked into
	// committed lines — nonzero only for naive.
	DirectBypassKB, SilentKB, ChainSilentKB float64
	// BitExact is the crash-restore-replay verdict for this regime under
	// a seeded mid-run crash.
	BitExact bool
	// PhaseTime is the drain regime's per-phase latency accounting
	// (zero elsewhere).
	PhaseTime [mpi.NumDrainPhases]des.Time
}

// rdmaExperimentConfig is the supervised one-sided ring every A18 cell
// runs: 3 ranks, 12 iterations, a line every 3, one node crash past the
// second line while puts are in flight.
func rdmaExperimentConfig(putEvery, pages int, rdma autonomic.RDMAMode) autonomic.Config {
	return autonomic.Config{
		Workload: autonomic.PutFactory{
			Pages: pages, PutEvery: putEvery, Seed: 2.5,
			ComputeTime: 50 * des.Millisecond,
		},
		Ranks:       3,
		Iterations:  12,
		CkptEvery:   3,
		ComputeTime: 50 * des.Millisecond,
		Seed:        11,
		RDMA:        rdma,
		Faults:      "crash at 400ms..410ms",
	}
}

// rdmaRegimes enumerates the three delivery regimes; bounce is the zero
// mode.
var rdmaRegimes = []struct {
	Name string
	Mode autonomic.RDMAMode
}{
	{"bounce", 0},
	{"naive", autonomic.RDMANaive},
	{"drain", autonomic.RDMADrain},
}

// RDMAAblation sweeps regime × message rate × registered footprint and
// returns one row per cell.
func RDMAAblation() ([]RDMARow, error) {
	var rows []RDMARow
	for _, putEvery := range []int{1, 4} {
		for _, pages := range []int{1, 8} {
			for _, reg := range rdmaRegimes {
				out, err := autonomic.ValidateReplay(rdmaExperimentConfig(putEvery, pages, reg.Mode))
				if err != nil {
					return nil, fmt.Errorf("experiments: rdma %s replay: %w", reg.Name, err)
				}
				// The cell sets nothing Reference drops, so its reference
				// is the failure-free run the row reports.
				rep := out.Reference
				if !rep.Completed {
					return nil, fmt.Errorf("experiments: rdma %s run did not complete", reg.Name)
				}
				row := RDMARow{
					Regime:         reg.Name,
					PutEvery:       putEvery,
					Pages:          pages,
					Elapsed:        rep.Elapsed,
					Efficiency:     rep.Efficiency,
					CommitTime:     rep.CommitTime,
					RegisterTime:   rep.Ledger[autonomic.Registration],
					DrainTimeouts:  rep.DrainTimeouts,
					DirectBypassKB: float64(rep.DirectBypassBytes) / 1024,
					SilentKB:       float64(rep.SilentDirtyBytes) / 1024,
					ChainSilentKB:  float64(rep.CheckpointSilentBytes) / 1024,
					PhaseTime:      rep.DrainPhaseTime,
					BitExact:       out.BitExact(),
				}
				for p := 0; p < mpi.NumDrainPhases; p++ {
					if mpi.DrainPhase(p) != mpi.PhaseCheckpoint {
						row.DrainTime += rep.DrainPhaseTime[p]
					}
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

// FormatRDMA renders the A18 rows as a text table plus the drain
// regime's per-phase latency breakdown.
func FormatRDMA(rows []RDMARow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-7s %4s %6s %9s %6s %9s %9s %9s %4s %9s %9s %9s %6s\n",
		"regime", "put", "pages", "elapsed", "eff%", "commit", "drainµs", "regµs",
		"tmo", "bypassKB", "silentKB", "chainKB", "exact")
	var phases [mpi.NumDrainPhases]des.Time
	var drainRounds bool
	us := func(t des.Time) float64 { return float64(t) / float64(des.Microsecond) }
	for _, r := range rows {
		fmt.Fprintf(&b, "%-7s %4d %6d %9v %6.1f %9v %9.0f %9.0f %4d %9.1f %9.1f %9.1f %6s\n",
			r.Regime, r.PutEvery, r.Pages, r.Elapsed, r.Efficiency*100,
			r.CommitTime, us(r.DrainTime), us(r.RegisterTime), r.DrainTimeouts,
			r.DirectBypassKB, r.SilentKB, r.ChainSilentKB, yesNo(r.BitExact))
		if r.Regime == "drain" {
			drainRounds = true
			for p := range phases {
				phases[p] += r.PhaseTime[p]
			}
		}
	}
	if drainRounds {
		b.WriteString("\ndrain phase totals (µs):")
		for p := 0; p < mpi.NumDrainPhases; p++ {
			fmt.Fprintf(&b, " %s=%.0f", mpi.DrainPhase(p), us(phases[p]))
		}
		b.WriteString("\n")
	}
	return b.String()
}
