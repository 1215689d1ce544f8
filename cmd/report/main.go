// Command report regenerates the complete paper-vs-measured report as
// Markdown on stdout: every artefact of experiments.Artefacts that
// `figures -fig all` prints, one heading and one fenced table each.
// EXPERIMENTS.md is a curated snapshot of this output at -ranks 64. The
// output itself is not committed (docs/report.md is git-ignored): the
// golden file TestGoldenAll pins is the one checked-in copy of the tables.
//
// Usage:
//
//	report [-ranks 64] [-seed 7] > report.md
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
)

func main() {
	ranks := flag.Int("ranks", 64, "MPI ranks")
	seed := flag.Uint64("seed", 7, "simulation seed")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "report:", err)
		os.Exit(1)
	}
	fmt.Printf("# Reproduction report (%d ranks, seed %d)\n\n", *ranks, *seed)
	arts, err := experiments.Select("all")
	if err != nil {
		fail(err)
	}
	for _, a := range arts {
		res, err := a.Run(experiments.RunOpts{Ranks: *ranks, Seed: *seed})
		if err != nil {
			fail(err)
		}
		fmt.Printf("## %s\n\n", a.Title)
		for _, s := range res.Sections {
			if s.Title != a.Title {
				fmt.Printf("### %s\n\n", s.Title)
			}
			fmt.Printf("```\n%s```\n\n", s.Body)
		}
	}
}
