package workload

import (
	"runtime"
	"testing"

	"repro/internal/des"
)

// shardedFingerprint runs tiny() at the given shard count and returns
// the full observable state: per-rank space digests, written-byte
// counts, iteration count, IterZero and total events fired.
func shardedFingerprint(t *testing.T, shards int) ([]uint64, []uint64, int, des.Time, uint64) {
	t.Helper()
	r, err := New(tiny(), Config{Ranks: 4, Seed: 42, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	r.Run(r.durationFor(3))
	digests := make([]uint64, 4)
	written := make([]uint64, 4)
	for i := 0; i < 4; i++ {
		digests[i] = r.Space(i).Digest(nil)
		written[i] = r.Space(i).WrittenBytes()
	}
	return digests, written, r.iterations(), r.IterZero(), r.Eng.Fired()
}

// TestShardedRunnerMatchesSequential pins the tentpole guarantee at the
// workload level: per-seed results — page digests, write volumes,
// iteration progress and total event counts — are bit-identical between
// the sequential engine and every shard count.
func TestShardedRunnerMatchesSequential(t *testing.T) {
	refD, refW, refIter, refZero, refFired := shardedFingerprint(t, 0)
	for _, shards := range []int{1, 2, 3, 8} {
		d, w, iter, zero, fired := shardedFingerprint(t, shards)
		for i := range refD {
			if d[i] != refD[i] || w[i] != refW[i] {
				t.Fatalf("shards=%d rank %d: digest/written %x/%d, want %x/%d",
					shards, i, d[i], w[i], refD[i], refW[i])
			}
		}
		if iter != refIter || zero != refZero {
			t.Fatalf("shards=%d: iter=%d zero=%v, want %d/%v", shards, iter, zero, refIter, refZero)
		}
		if fired != refFired {
			t.Fatalf("shards=%d: fired=%d, want %d", shards, fired, refFired)
		}
	}
}

// TestShardedRunnerCounterAggregation pins Pending/Fired aggregation
// across shards against the sequential engine at a mid-run cut, where
// events are still outstanding.
func TestShardedRunnerCounterAggregation(t *testing.T) {
	cut := 400 * des.Millisecond // mid-init: ticks outstanding on every rank
	run := func(shards int) (uint64, int) {
		r, err := New(tiny(), Config{Ranks: 4, Seed: 42, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		r.Run(cut)
		return r.Eng.Fired(), r.Eng.Pending()
	}
	refFired, refPending := run(0)
	if refPending == 0 {
		t.Fatal("cut too late: no pending events to compare")
	}
	for _, shards := range []int{1, 3, 8} {
		fired, pending := run(shards)
		if fired != refFired || pending != refPending {
			t.Fatalf("shards=%d: fired/pending = %d/%d, want %d/%d", shards, fired, pending, refFired, refPending)
		}
	}
}

// TestShardedRunnerParallelRace exercises the parallel path under the
// race detector with real shard concurrency.
func TestShardedRunnerParallelRace(t *testing.T) {
	r, err := New(tiny(), Config{Ranks: 8, Seed: 9, Shards: runtime.NumCPU()})
	if err != nil {
		t.Fatal(err)
	}
	r.Run(r.durationFor(2))
	if r.iterations() < 2 {
		t.Fatalf("iterations = %d", r.iterations())
	}
}
