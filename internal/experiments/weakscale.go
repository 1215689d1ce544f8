package experiments

import (
	"fmt"

	"repro/internal/workload"
)

// ScalingRow is one cell of the A20 scaling table: one measured
// reference run (the RunOne protocol) at a given engine topology. Shards
// 0 is the sequential engine; virtual-time results are bit-identical
// across every row of an app, so what varies is the critical path.
// Every column is deterministic per seed and shard count; host
// wall-clock per topology is the benchmark's (iws-paper against
// iws-sharded), not this table's.
type ScalingRow struct {
	App    string
	Ranks  int
	Shards int // 0 = sequential engine
	// Events is the simulation's total event count (identical across an
	// app's rows — asserted, since it doubles as an equivalence check).
	Events uint64
	// CritPathEvents is the longest dependent event chain (== Events for
	// the sequential row).
	CritPathEvents uint64
	// Concurrency is Events/CritPathEvents: the parallel speedup an
	// unbounded host could realise at this topology.
	Concurrency float64
}

// ScalingTable runs each app's reference run once per engine topology.
// shardCounts must start with 0 (the sequential baseline every other
// row's event count is checked against).
func ScalingTable(specs []workload.Spec, base RunOpts, shardCounts []int) ([]ScalingRow, error) {
	if len(shardCounts) == 0 || shardCounts[0] != 0 {
		return nil, fmt.Errorf("experiments: scaling table needs shardCounts starting with 0 (the sequential baseline), got %v", shardCounts)
	}
	opts := base.withDefaults()
	var rows []ScalingRow
	for _, spec := range specs {
		var seqEvents uint64
		for _, shards := range shardCounts {
			o := opts
			o.Shards = shards
			res, err := RunOne(spec, o)
			if err != nil {
				return nil, err
			}
			row := ScalingRow{
				App:            spec.Name,
				Ranks:          o.Ranks,
				Shards:         shards,
				Events:         res.Events,
				CritPathEvents: res.CritPathEvents,
			}
			if row.CritPathEvents > 0 {
				row.Concurrency = float64(row.Events) / float64(row.CritPathEvents)
			}
			if shards == 0 {
				seqEvents = row.Events
			} else if row.Events != seqEvents {
				return nil, fmt.Errorf("experiments: %s shards=%d fired %d events, sequential fired %d — determinism broken",
					spec.Name, shards, row.Events, seqEvents)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// FormatScaling renders the A20 table.
func FormatScaling(rows []ScalingRow) string {
	out := fmt.Sprintf("%-14s %6s %7s %12s %12s %12s\n",
		"app", "ranks", "shards", "events", "crit path", "concurrency")
	for _, r := range rows {
		shards := fmt.Sprint(r.Shards)
		if r.Shards == 0 {
			shards = "seq"
		}
		out += fmt.Sprintf("%-14s %6d %7s %12d %12d %11.2fx\n",
			r.App, r.Ranks, shards, r.Events, r.CritPathEvents, r.Concurrency)
	}
	return out
}
