package experiments

import (
	"fmt"
	"strings"

	"repro/internal/autonomic"
	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/redundancy"
)

// A21: multi-level checkpointing ablation. The hierarchy puts every
// rank's chain on node-local storage (L1), parity-protects each
// committed line across ranks with an erasure code placed over failure
// domains (L2), and reserves the global store (L3) for every Nth line.
// The grid sweeps redundancy scheme (none / XOR m=1 / RS k+m) ×
// failure-domain size × checkpoint interval, injects a correlated
// domain-crash — every rank of one failure domain dies at the same
// instant, local chains and all — and measures where recovery's bytes
// actually came from. The headline: with erasure-coded partners the
// whole domain loss (up to m ranks per parity group, by placement at
// most one) is rebuilt from surviving shards with *zero* global-store
// reads, bit-exact against the failure-free reference; the scheme=none
// baseline must drag every lost chain back from L3. The interval axis
// shows rollback distance doing its usual work against both.

// MultiLevelRow is one cell of the A21 grid, aggregated over the seed
// sweep.
type MultiLevelRow struct {
	// Scheme names the L2 redundancy ("none", "xor 2+1", "rs 2+2").
	Scheme string
	// DomainSize is the correlated-failure unit: how many ranks die
	// together when the domain crashes.
	DomainSize int
	// CkptEvery is the checkpoint timeslice in iterations.
	CkptEvery int
	SweepStats
	// Failures and DomainCrashes sum the injected faults; RanksLost is
	// the total ranks the domain crashes killed (DomainSize each).
	Failures, DomainCrashes, RanksLost int
	// LevelBytes sums recovery reads per tier (L1 local, L2 parity
	// rebuild, L3 global) over all runs; LevelTime the corresponding
	// modelled read time.
	LevelBytes [redundancy.LevelCount]uint64
	LevelTime  [redundancy.LevelCount]des.Time
	// Rebuilds sums successful parity reconstructions; ZeroGlobal
	// reports that no recovery in the cell read a single L3 byte.
	Rebuilds   uint64
	ZeroGlobal bool
	// ParityMB is the parity volume exchanged at commit time, and
	// L2Exchange its cumulative link cost — the premium the scheme pays
	// for its rebuild capacity.
	ParityMB   float64
	L2Exchange des.Time
}

// multiLevelScheme is one point of the redundancy axis.
type multiLevelScheme struct {
	name        string
	scheme      redundancy.Scheme
	globalEvery int
}

// multiLevelSchemes returns the redundancy axis. The none baseline
// writes every line through to L3 (classic two-level local+global);
// the coded schemes park L3 at effectively-never so every recovered
// byte must come from L1 survivors and L2 rebuilds.
func multiLevelSchemes() []multiLevelScheme {
	return []multiLevelScheme{
		{"none", redundancy.Scheme{Kind: redundancy.None}, 1},
		{"xor 2+1", redundancy.Scheme{Kind: redundancy.XOR, K: 2, M: 1}, 1 << 20},
		{"rs 2+2", redundancy.Scheme{Kind: redundancy.RS, K: 2, M: 2}, 1 << 20},
	}
}

// multiLevelCell is one A21 cell's variant of a seed's smallJacobi run.
func multiLevelCell(cfg autonomic.Config, sc multiLevelScheme, domains *cluster.DomainMap, every int) autonomic.Config {
	cfg.CkptEvery = every
	cfg.MultiLevel = &autonomic.MultiLevelOptions{
		Scheme:      sc.scheme,
		Domains:     domains,
		GlobalEvery: sc.globalEvery,
	}
	return cfg
}

// MultiLevelAblation runs the A21 grid over the given seeds (nil → the
// default sweep of three). Every cell replays a correlated domain-crash
// through autonomic.ValidateReplay, so bit-exactness is checked against
// the cell's autonomic.Reference, which runs no hierarchy.
func MultiLevelAblation(seeds []uint64) ([]MultiLevelRow, error) {
	const ranks = 8
	var rows []MultiLevelRow
	for _, sc := range multiLevelSchemes() {
		for _, domainSize := range []int{1, 2} {
			for _, every := range []int{5, 10} {
				domains, err := cluster.NewDomainMap(ranks, domainSize)
				if err != nil {
					return nil, err
				}
				row := MultiLevelRow{Scheme: sc.name, DomainSize: domainSize, CkptEvery: every, ZeroGlobal: true}
				row.SweepStats = sweepSeeds(seeds, ranks, false, func(cfg autonomic.Config) autonomic.Config {
					cfg = multiLevelCell(cfg, sc, domains, every)
					cfg.Faults, cfg.Replicas = "domain-crash at 2500ms..30s domain d1", 1
					return cfg
				}, func(out *autonomic.ReplayOutcome) {
					rep := out.Injected
					row.Failures += rep.Failures
					row.DomainCrashes += rep.DomainCrashes
					row.RanksLost += rep.DomainCrashes * domainSize
					row.Rebuilds += rep.ParityRebuilds
					row.ParityMB += rep.ParityVolumeMB
					row.L2Exchange += rep.L2ExchangeTime
					for i := 0; i < redundancy.LevelCount; i++ {
						row.LevelBytes[i] += rep.LevelReadBytes[i]
						row.LevelTime[i] += rep.LevelReadTime[i]
					}
					if rep.LevelReadBytes[redundancy.LevelGlobal] != 0 {
						row.ZeroGlobal = false
					}
				})
				row.ZeroGlobal = row.ZeroGlobal && row.Completed > 0
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

// FormatMultiLevel renders the A21 rows as a text table.
func FormatMultiLevel(rows []MultiLevelRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %4s %5s %6s %6s %5s %5s %8s %9s %9s %9s %7s %6s %8s %6s\n",
		"scheme", "dom", "every", "done", "exact", "lost", "rbld",
		"down~", "L1-KB", "L2-KB", "L3-KB", "zeroL3", "parMB", "l2cost", "eff%")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %4d %5d %4d/%-2d %6s %5d %5d %8v %9.1f %9.1f %9.1f %7s %6.2f %8v %6.1f\n",
			r.Scheme, r.DomainSize, r.CkptEvery, r.Completed, r.Runs, yesNo(r.BitExact),
			r.RanksLost, r.Rebuilds, r.MeanDowntime,
			float64(r.LevelBytes[redundancy.LevelLocal])/1e3,
			float64(r.LevelBytes[redundancy.LevelParity])/1e3,
			float64(r.LevelBytes[redundancy.LevelGlobal])/1e3,
			yesNo(r.ZeroGlobal), r.ParityMB, r.L2Exchange, r.MeanEfficiency*100)
	}
	return b.String()
}
