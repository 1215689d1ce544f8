package autonomic

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/redundancy"
)

// checkLedger holds rep to the ledger's two identities: its states sum
// to Elapsed exactly, and its compute slice is every completed
// iteration's compute time (the run's and the rolled-back ones) plus
// their measured exchange. cfg is the run's config.
func checkLedger(t *testing.T, name string, cfg Config, rep *Report) {
	t.Helper()
	var sum des.Time
	for _, d := range rep.Ledger {
		sum += d
	}
	if sum != rep.Elapsed {
		t.Errorf("%s: the ledger sums to %d ns, elapsed %d ns: %v", name, sum, rep.Elapsed, rep.Ledger)
	}
	iters := des.Time(rep.Iterations + rep.LostIterations)
	if want := iters*cfg.withDefaults().ComputeTime + rep.ExchangeTime; rep.Ledger[Compute] != want {
		t.Errorf("%s: compute slice %d ns, want %d iterations' compute plus %d ns of exchange = %d ns",
			name, rep.Ledger[Compute], iters, rep.ExchangeTime, want)
	}
}

// ledgerGrid is the product the ledger is first proven over: a 4-rank
// stencil under a Poisson failure clock, at seeds 3/5/9, with two-phase
// commit off and on, the heartbeat detector off and at 50 ms, and
// multi-level off and RS 2+2.
func ledgerGrid() map[string]Config {
	out := make(map[string]Config)
	for _, seed := range []uint64{3, 5, 9} {
		for _, twoPhase := range []bool{false, true} {
			for _, hb := range []des.Time{0, 50 * des.Millisecond} {
				for _, rs := range []bool{false, true} {
					cfg := baseConfig()
					cfg.Seed, cfg.Faults = seed, "crash every exp 3s"
					cfg.TwoPhaseCommit, cfg.HeartbeatPeriod = twoPhase, hb
					if rs {
						cfg.MultiLevel = &MultiLevelOptions{Scheme: redundancy.Scheme{Kind: redundancy.RS, K: 2, M: 2}}
					}
					out[fmt.Sprintf("grid seed %d 2pc %v heartbeat %v rs %v", seed, twoPhase, hb, rs)] = cfg
				}
			}
		}
	}
	return out
}

// TestLedgerPartitionsElapsed: the ledger closes, with no remainder, on
// both runs of every replay validation of the replay suite's configs and
// A19's kernels at seeds 3/5/9, the grid above, A16's four schedules and
// the benchmark's two heal schedules.
func TestLedgerPartitionsElapsed(t *testing.T) {
	cases := ledgerGrid()
	for _, seed := range []uint64{3, 5, 9} {
		for name, cfg := range valueFactoryConfigs(t, seed) {
			cases[fmt.Sprintf("%s seed %d", name, seed)] = cfg
		}
		for i, cfg := range ckptSetConfigs(t, seed) {
			cases[fmt.Sprintf("A19 %d seed %d", i, seed)] = cfg
		}
		for _, sc := range []struct {
			name, text string
			twoPhase   bool
		}{ // A16's schedules (experiments.chaosExperimentSchedules)
			{"crash", "crash at 1500ms..6s count 2 jitter 400ms", false},
			{"commit-crash", "commit-crash at 1s..30s count 2", true},
			{"partition+brownout", "partition at 2s..4s drop 0.9 group burst\ncrash at 2s..4s group burst\nstorage-brownout at 5s..7s rate 0.4", false},
			{"bitflip", "bitflip at 2s..9s count 4\ncrash at 3s..8s count 1", false},
		} {
			cfg := chaosBaseConfig(seed)
			cfg.Faults, cfg.Replicas, cfg.TwoPhaseCommit = sc.text, 1, sc.twoPhase
			cases[fmt.Sprintf("A16 %s seed %d", sc.name, seed)] = cfg
		}
	}
	domains, err := cluster.NewDomainMap(12, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{7, 11, 13} {
		// The benchmark's heal-stencil and heal-multilevel schedules
		// (benchmark/workloads.go), the first over a two-replica mirror.
		stencil := healStencilConfig(seed)
		stencil.Replicas = 2
		stencil.Faults = "crash at 2s..12s count 2 jitter 300ms\ncommit-crash at 1s..20s count 1\nstorage-outage at 7s..8s\nbitflip at 1200ms..15s count 4"
		cases[fmt.Sprintf("heal-stencil seed %d", seed)] = stencil
		cases[fmt.Sprintf("heal-multilevel seed %d", seed)] = Config{
			Ranks: 12, Nx: 256, RowsPerRank: 64, Boundary: 9,
			Iterations: 40, CkptEvery: 5,
			ComputeTime:     250 * des.Millisecond,
			RestartOverhead: 500 * des.Millisecond,
			MultiLevel: &MultiLevelOptions{
				Scheme:  redundancy.Scheme{Kind: redundancy.RS, K: 4, M: 2},
				Domains: domains, GlobalEvery: 8, FullEvery: 8,
			},
			Faults: "domain-crash at 2500ms..30s domain d1\ncrash at 5s..8s count 1",
			Seed:   seed,
		}
	}
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	slices.Sort(names)
	failed := 0
	for _, name := range names {
		cfg := cases[name]
		out, err := ValidateReplay(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkLedger(t, name+" reference", cfg, out.Reference)
		checkLedger(t, name+" injected", cfg, out.Injected)
		if out.Injected.Failures > 0 {
			failed++
		}
	}
	if want := len(ledgerGrid()); failed < want {
		t.Errorf("only %d runs failed at all, want at least the grid's %d: the suite proves little about downtime", failed, want)
	}
}

// ledgerLines are the schedule lines FuzzSupervisedLedger draws from,
// one bit of its lines mask each. Some need a feature the config may
// lack (a domain crash MultiLevel, a drain crash the drain protocol),
// and Run refuses those.
var ledgerLines = []string{
	"crash every exp 3s",
	"commit-crash at 1s..30s count 2",
	"crash-during-drain at 0s..20s phase deregister",
	"domain-crash at 2s..8s domain d1",
	"partition at 2s..4s drop 0.9 group burst\ncrash at 2s..4s group burst",
	"storage-brownout at 5s..7s rate 0.4",
	"bitflip at 2s..9s count 4",
}

// ledgerConfig is the 4-rank run FuzzSupervisedLedger's input picks:
// bit 0 of features turns two-phase commit on, bit 1 the heartbeat
// detector; bits 2-3 pick MultiLevel (off, XOR 2+1, RS 2+2), bits 4-5
// RDMA (off, naive, drain: a one-sided put ring), bits 6-7 Replicas
// (0-2); lines picks ledgerLines.
func ledgerConfig(seed uint64, features uint16, lines uint8) Config {
	cfg := baseConfig()
	cfg.Seed = seed
	cfg.TwoPhaseCommit = features&1 != 0
	if features&2 != 0 {
		cfg.HeartbeatPeriod = 50 * des.Millisecond
	}
	switch features >> 2 & 3 {
	case 1:
		cfg.MultiLevel = &MultiLevelOptions{Scheme: redundancy.Scheme{Kind: redundancy.XOR, K: 2, M: 1}}
	case 2:
		cfg.MultiLevel = &MultiLevelOptions{Scheme: redundancy.Scheme{Kind: redundancy.RS, K: 2, M: 2}}
	}
	switch features >> 4 & 3 {
	case 1:
		cfg.RDMA = RDMANaive
	case 2:
		cfg.RDMA = RDMADrain
	}
	if cfg.RDMA != rdmaOff {
		cfg.Workload = PutFactory{Pages: 1, PutEvery: 1, Seed: 2.5, ComputeTime: cfg.ComputeTime}
	}
	cfg.Replicas = int(features>>6&3) % 3
	var text []string
	for i, line := range ledgerLines {
		if lines&(1<<i) != 0 {
			text = append(text, line)
		}
	}
	cfg.Faults = strings.Join(text, "\n")
	return cfg
}

// FuzzSupervisedLedger: any product of the supervisor's features and
// fault lines either is refused with an error or completes with a
// ledger that closes. The seed corpus is the grid TestLedgerPartitions
// Elapsed proves first: crash every exp 3s at seeds 3/5/9, two-phase
// commit off and on, the detector off and on, multi-level off and RS
// 2+2.
func FuzzSupervisedLedger(f *testing.F) {
	for _, seed := range []uint64{3, 5, 9} {
		for features := uint16(0); features < 4; features++ {
			f.Add(seed, features, uint8(1))
			f.Add(seed, features|2<<2, uint8(1))
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64, features uint16, lines uint8) {
		cfg := ledgerConfig(seed, features, lines)
		rep, err := Run(cfg)
		if err != nil {
			return
		}
		if !rep.Completed {
			t.Fatalf("%+v: the run neither completed nor failed", cfg)
		}
		checkLedger(t, fmt.Sprintf("seed %d features %#x lines %#x", seed, features, lines), cfg, rep)
	})
}
