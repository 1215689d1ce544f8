// Command figures regenerates the paper's evaluation — Tables 2-4, the
// data series behind Figures 1-5, the §6.5 intrusiveness numbers and
// every ablation — as plain-text columns, ready for any plotting tool.
// The artefacts are those of experiments.Artefacts; -h lists them.
//
// With -md it prints the selected artefacts as one Markdown report, one
// heading and one fenced table each. EXPERIMENTS.md is a curated
// snapshot of `figures -md` at -ranks 64. The report itself is not
// committed (docs/report.md is git-ignored): the golden file
// TestGoldenAll pins is the one checked-in copy of the tables.
//
// -fig also takes an application name (core.Apps). It then prints that
// application's per-timeslice trace (IWS, IB, data received, footprint)
// as CSV at a 1 s timeslice over three iterations, then its summary and
// the feasibility verdict of §6.3.
//
// Usage:
//
//	figures [-fig name|app|all] [-md] [-ranks 64] [-seed 7]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/profiling"
)

func main() {
	fig := flag.String("fig", "all", "artefact to regenerate ("+strings.Join(experiments.Names(), ", ")+
		", all) or application to trace ("+strings.Join(core.Apps(), ", ")+")")
	md := flag.Bool("md", false, "print the artefacts as one Markdown report")
	ranks := flag.Int("ranks", 64, "MPI ranks")
	seed := flag.Uint64("seed", 7, "simulation seed")
	prof := profiling.AddFlags()
	flag.Parse()

	stopProf, err := prof.Start()
	if err == nil {
		err = run(os.Stdout, *fig, *md, experiments.RunOpts{Ranks: *ranks, Seed: *seed})
		stopProf()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

// run prints what fig names: an application's trace, or the selected
// artefacts as text or, with md, as Markdown.
func run(w io.Writer, fig string, md bool, o experiments.RunOpts) error {
	if !md && slices.Contains(core.Apps(), fig) {
		return trace(w, fig, o)
	}
	arts, err := experiments.Select(fig)
	if err != nil {
		return err
	}
	if md {
		fmt.Fprintf(w, "# Reproduction report (%d ranks, seed %d)\n\n", o.Ranks, o.Seed)
	}
	for _, a := range arts {
		res, err := a.Run(o)
		if err != nil {
			return err
		}
		if !md {
			fmt.Fprint(w, res.Text())
			continue
		}
		fmt.Fprintf(w, "## %s\n\n", a.Title)
		for _, s := range res.Sections {
			if s.Title != a.Title {
				fmt.Fprintf(w, "### %s\n\n", s.Title)
			}
			fmt.Fprintf(w, "```\n%s```\n\n", s.Body)
		}
	}
	return nil
}

// trace measures one application under the instrumentation library and
// prints its per-timeslice series as CSV, a blank line, and a summary.
func trace(w io.Writer, app string, o experiments.RunOpts) error {
	m, err := core.Measure(core.MeasureConfig{App: app, Ranks: o.Ranks, Seed: o.Seed})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "time_s,iws_mb,ib_mbs,recv_mb,footprint_mb")
	for i, p := range m.IWS.Points {
		fmt.Fprintf(w, "%.2f,%.3f,%.3f,%.3f,%.1f\n",
			p.T, p.V, m.IB.Points[i].V, m.Recv.Points[i].V, m.Footprint.Points[i].V)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "application      : %s on %d ranks, timeslice %v\n", m.App, m.Ranks, m.Timeslice)
	fmt.Fprintf(w, "footprint        : avg %.1f MB, max %.1f MB\n", m.AvgFootprintMB, m.MaxFootprintMB)
	fmt.Fprintf(w, "incremental BW   : avg %.1f MB/s, max %.1f MB/s (init excluded)\n", m.AvgIBMBs, m.MaxIBMBs)
	fmt.Fprintf(w, "instrumentation  : %.1f%% slowdown\n", m.Slowdown*100)
	fmt.Fprintf(w, "headroom         : %.1fx network (900 MB/s), %.1fx disk (320 MB/s)\n",
		m.NetworkHeadroom, m.DiskHeadroom)
	if m.Feasible() {
		fmt.Fprintln(w, "verdict          : FEASIBLE — requirement fits both sinks")
	} else {
		fmt.Fprintln(w, "verdict          : NOT FEASIBLE at this timeslice")
	}
	return nil
}
