package autonomic

import (
	"reflect"
	"testing"

	"repro/internal/des"
	"repro/internal/redundancy"
	"repro/internal/storage"
)

// TestReferenceDiscardsOnlyTheBytes: Reference writes its lines to a
// store that keeps nothing, because nothing in a failure-free run reads
// them back. Its report is the one Run gives for the same stripped
// config on a fresh MemStore that keeps every line — every field, the
// digests, checksum, elapsed and commit time, volume and line count
// included — for a backed stencil, a drained one-sided put ring and a
// multi-level hierarchy.
func TestReferenceDiscardsOnlyTheBytes(t *testing.T) {
	stencil := baseConfig()
	stencil.MTBF, stencil.HeartbeatPeriod, stencil.TwoPhaseCommit = 3*des.Second, 50*des.Millisecond, true
	for name, cfg := range map[string]Config{
		"stencil":    stencil,
		"put drain":  rdmaConfig(RDMADrain),
		"multilevel": mlBaseConfig(7, MultiLevelOptions{Scheme: redundancy.Scheme{Kind: redundancy.RS, K: 2, M: 2}}),
	} {
		ref, err := Reference(cfg)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		kept := storage.NewMemStore()
		cfg.MTBF, cfg.NetFaults, cfg.Store = 0, nil, kept
		cfg.TwoPhaseCommit, cfg.MultiLevel, cfg.HeartbeatPeriod, cfg.Spec = false, nil, 0, nil
		got, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: run on a MemStore: %v", name, err)
		}
		if n, _ := kept.Size(); n == 0 || got.CommittedLines == 0 {
			t.Fatalf("%s: the MemStore run kept %d bytes of %d lines; want some", name, n, got.CommittedLines)
		}
		if !ref.Completed || !reflect.DeepEqual(ref, got) {
			t.Errorf("%s: reference report differs from the kept-store run:\nreference %+v\nkept      %+v", name, ref, got)
		}
	}
}

// BenchmarkReferenceRun is one heal-stencil-shaped Reference per op: an
// 8-rank backed stencil cutting a line every 5 of 80 sweeps, the
// failure-free half of every replay validation.
func BenchmarkReferenceRun(b *testing.B) {
	cfg := Config{
		Ranks: 8, Nx: 256, RowsPerRank: 64, Boundary: 9,
		Iterations: 80, CkptEvery: 5,
		ComputeTime:     250 * des.Millisecond,
		RestartOverhead: des.Second,
		TwoPhaseCommit:  true,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := Reference(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Completed {
			b.Fatal("reference run incomplete")
		}
	}
}
