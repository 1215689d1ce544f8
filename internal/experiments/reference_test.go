package experiments

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/autonomic"
	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/kernels"
	"repro/internal/redundancy"
)

// failureFreeRun is the replay reference autonomic.Reference replaced:
// Run of cfg with only its failure sources removed, so it still runs
// every protection layer of the run it judges. It is kept here as the
// comparator that proves dropping those layers changes no answer.
func failureFreeRun(cfg autonomic.Config) (*autonomic.Report, error) {
	cfg.Faults, cfg.Store = "", nil
	return autonomic.Run(cfg)
}

// namedConfig is one config under test, named for its failure message.
type namedConfig struct {
	name string
	cfg  autonomic.Config
}

// referenceFamilies returns every registry config family whose replay
// verdict Reference decides, at the given seed: A15's cells (at one
// loss rate: Reference drops the network either way), A16's with
// two-phase commit off and on (its four schedules never reach a
// reference), A18's twelve cells, A19's spec configs, A21's
// twelve cells, and the benchmark's heal-stencil and heal-multilevel.
func referenceFamilies(t *testing.T, seed uint64) []namedConfig {
	t.Helper()
	var out []namedConfig
	add := func(name string, cfg autonomic.Config) { out = append(out, namedConfig{name, cfg}) }
	_, periods, timeslices := clusterGrid()
	for _, period := range periods {
		for _, every := range timeslices {
			add(fmt.Sprintf("A15/hb%v/every%d", period, every), clusterCell(smallJacobi(4, seed), 0.05, period, every))
		}
	}
	for _, twoPhase := range []bool{false, true} {
		cfg := smallJacobi(4, seed)
		cfg.Sink = nfsClassSink
		cfg.TwoPhaseCommit = twoPhase
		add(fmt.Sprintf("A16/2pc=%v", twoPhase), cfg)
	}
	for _, putEvery := range []int{1, 4} {
		for _, pages := range []int{1, 8} {
			for _, reg := range rdmaRegimes {
				cfg := rdmaExperimentConfig(putEvery, pages, reg.Mode)
				cfg.Seed = seed
				add(fmt.Sprintf("A18/%s/put%d/pages%d", reg.Name, putEvery, pages), cfg)
			}
		}
	}
	spec, err := kernels.Spec()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ckptSetWorkloads {
		cfg := w.config(spec)
		cfg.Seed = seed
		add("A19/"+w.name, cfg)
	}
	for _, sc := range multiLevelSchemes() {
		for _, domainSize := range []int{1, 2} {
			domains, err := cluster.NewDomainMap(8, domainSize)
			if err != nil {
				t.Fatal(err)
			}
			for _, every := range []int{5, 10} {
				add(fmt.Sprintf("A21/%s/dom%d/every%d", sc.name, domainSize, every), multiLevelCell(smallJacobi(8, seed), sc, domains, every))
			}
		}
	}
	// benchmark/workloads.go's heal-stencil and heal-multilevel configs.
	add("heal-stencil", autonomic.Config{
		Ranks: 8, Nx: 256, RowsPerRank: 64, Boundary: 9,
		Iterations: 80, CkptEvery: 5,
		ComputeTime:     250 * des.Millisecond,
		RestartOverhead: des.Second,
		TwoPhaseCommit:  true,
		Seed:            seed,
	})
	domains, err := cluster.NewDomainMap(12, 2)
	if err != nil {
		t.Fatal(err)
	}
	add("heal-multilevel", autonomic.Config{
		Ranks: 12, Nx: 256, RowsPerRank: 64, Boundary: 9,
		Iterations: 40, CkptEvery: 5,
		ComputeTime:     250 * des.Millisecond,
		RestartOverhead: 500 * des.Millisecond,
		MultiLevel: &autonomic.MultiLevelOptions{
			Scheme:      redundancy.Scheme{Kind: redundancy.RS, K: 4, M: 2},
			Domains:     domains,
			GlobalEvery: 8,
			FullEvery:   8,
		},
		Seed: seed,
	})
	return out
}

// TestReplayReferenceMatchesFullStack pins what Reference may drop: for
// every config family a replay verdict is taken on, the run without
// 2PC, the multi-level hierarchy, the heartbeat detector and the
// protection spec ends in the digests and checksum of the failure-free
// run that keeps them all.
func TestReplayReferenceMatchesFullStack(t *testing.T) {
	for _, seed := range []uint64{3, 5, 9} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			for _, c := range referenceFamilies(t, seed) {
				ref, err := autonomic.Reference(c.cfg)
				if err != nil {
					t.Fatalf("%s: reference: %v", c.name, err)
				}
				full, err := failureFreeRun(c.cfg)
				if err != nil {
					t.Fatalf("%s: full stack: %v", c.name, err)
				}
				if !ref.Completed || !full.Completed {
					t.Fatalf("%s: completed reference %v, full stack %v", c.name, ref.Completed, full.Completed)
				}
				if !slices.Equal(ref.SpaceDigests, full.SpaceDigests) || ref.Checksum != full.Checksum {
					t.Errorf("%s: reference digests %x checksum %v, full stack %x checksum %v",
						c.name, ref.SpaceDigests, ref.Checksum, full.SpaceDigests, full.Checksum)
				}
			}
		})
	}
}
