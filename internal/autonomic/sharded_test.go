package autonomic

import (
	"reflect"
	"testing"

	"repro/internal/des"
)

// TestShardedReplayEquivalence pins that the supervisor on a shard
// group's control engine perturbs no event: the same MTBF-driven run
// hosted through Config.Engine on a standalone engine and on the control
// engine of a group of 2 and of 8 agrees on every digest, on the virtual
// makespan and on the failure log.
func TestShardedReplayEquivalence(t *testing.T) {
	run := func(eng *des.Engine) *Report {
		cfg := chaosBaseConfig(5)
		cfg.MTBF = 3 * des.Second
		cfg.Engine = eng
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Completed || rep.Failures == 0 {
			t.Fatalf("want a completed run with failures, got %+v", rep)
		}
		return rep
	}
	ref := run(des.NewEngine())
	for _, shards := range []int{2, 8} {
		got := run(des.NewGroup(shards).Control())
		if got.Checksum != ref.Checksum || !reflect.DeepEqual(got.SpaceDigests, ref.SpaceDigests) {
			t.Errorf("shards=%d: checksum %v digests %x, sequential %v %x",
				shards, got.Checksum, got.SpaceDigests, ref.Checksum, ref.SpaceDigests)
		}
		if got.Elapsed != ref.Elapsed || !reflect.DeepEqual(got.FailureLog, ref.FailureLog) {
			t.Errorf("shards=%d: elapsed %v failures %+v, sequential %v %+v",
				shards, got.Elapsed, got.FailureLog, ref.Elapsed, ref.FailureLog)
		}
	}
}
