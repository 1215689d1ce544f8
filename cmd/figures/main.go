// Command figures regenerates the paper's evaluation — Tables 2-4, the
// data series behind Figures 1-5, the §6.5 intrusiveness numbers and
// every ablation — as plain-text columns, ready for any plotting tool.
// The artefacts are those of experiments.Artefacts; -h lists them.
//
// Usage:
//
//	figures [-fig name|all] [-ranks 64] [-seed 7]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/profiling"
)

func main() {
	fig := flag.String("fig", "all", "artefact to regenerate: "+strings.Join(experiments.Names(), ", ")+" or all")
	ranks := flag.Int("ranks", 64, "MPI ranks")
	seed := flag.Uint64("seed", 7, "simulation seed")
	prof := profiling.AddFlags()
	flag.Parse()

	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
	defer stopProf()
	fail := func(err error) {
		stopProf()
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}

	arts, err := experiments.Select(*fig)
	if err != nil {
		fail(err)
	}
	for _, a := range arts {
		res, err := a.Run(experiments.RunOpts{Ranks: *ranks, Seed: *seed})
		if err != nil {
			fail(err)
		}
		fmt.Print(res.Text())
	}
}
