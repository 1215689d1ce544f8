// Command ckptsim explores incremental checkpointing at system level:
// it runs an application under coordinated checkpointing, then evaluates
// machine efficiency under failures across checkpoint intervals (the A2
// extension of DESIGN.md), reporting the Young/Daly optimum and what
// incrementality buys over full checkpoints.
//
// Usage:
//
//	ckptsim [-app Sage-1000MB] [-ranks 8] [-interval 10s] [-mtbf 1h]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/experiments"
)

func main() {
	app := flag.String("app", "Sage-1000MB", "application model")
	ranks := flag.Int("ranks", 8, "MPI ranks (all ranks are checkpointed)")
	interval := flag.Duration("interval", 10*time.Second, "coordinated checkpoint interval (virtual)")
	periods := flag.Int("periods", 2, "iterations to protect")
	mtbf := flag.Duration("mtbf", time.Hour, "system MTBF for the efficiency sweep")
	seed := flag.Uint64("seed", 7, "simulation seed")
	shards := flag.Int("shards", 0, "parallel event shards (0 = sequential engine; results are identical either way)")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "ckptsim:", err)
		os.Exit(1)
	}

	p, err := core.Protect(core.ProtectConfig{
		App:      *app,
		Ranks:    *ranks,
		Interval: des.Time(*interval),
		Periods:  *periods,
		Seed:     *seed,
		TrackCow: true,
		Shards:   *shards,
	})
	if err != nil {
		fail(err)
	}
	fmt.Printf("Coordinated incremental checkpointing: %s on %d ranks, interval %v\n",
		p.App, p.Ranks, p.Interval)
	fmt.Printf("  global checkpoints : %d\n", p.Checkpoints)
	fmt.Printf("  total volume       : %.1f MB (%.1f MB per checkpoint)\n", p.TotalMB, p.MeanPerCkptMB)
	fmt.Printf("  worst commit       : %.2f s (slowest rank at the SCSI sink)\n", p.MaxCommitS)
	fmt.Printf("  copy-on-write      : %.1f MB during drains\n", p.CowMB)
	fmt.Printf("  memory exclusion   : %.1f MB of unmapped dirty pages dropped\n\n", p.ExcludedMB)

	eff, err := experiments.Efficiency(
		experiments.RunOpts{Ranks: min(*ranks, 8), Seed: *seed}, des.Time(*mtbf))
	if err != nil {
		fail(err)
	}
	fmt.Printf("Machine efficiency under failures (system MTBF %v):\n", *mtbf)
	fmt.Print(experiments.FormatEfficiency(eff))
}
