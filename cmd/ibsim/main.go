// Command ibsim runs one application under the instrumentation library
// and prints its per-timeslice trace (IWS, IB, data received, footprint)
// as CSV, plus a summary with the feasibility verdict of §6.3.
//
// Usage:
//
//	ibsim -app Sage-1000MB -ranks 64 -timeslice 1s -periods 3 [-csv]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/profiling"
)

func main() {
	app := flag.String("app", "Sage-1000MB", "application model ("+strings.Join(core.Apps(), ", ")+")")
	ranks := flag.Int("ranks", 64, "MPI ranks")
	timeslice := flag.Duration("timeslice", time.Second, "checkpoint timeslice (virtual)")
	periods := flag.Int("periods", 3, "whole iterations to measure")
	seed := flag.Uint64("seed", 7, "simulation seed")
	includeInit := flag.Bool("init", false, "include the data-initialization burst in the trace")
	csv := flag.Bool("csv", false, "print the per-timeslice trace as CSV")
	prof := profiling.AddFlags()
	flag.Parse()

	stopProf, perr := prof.Start()
	if perr != nil {
		fmt.Fprintln(os.Stderr, "ibsim:", perr)
		os.Exit(1)
	}
	defer stopProf()

	m, err := core.Measure(core.MeasureConfig{
		App:         *app,
		Ranks:       *ranks,
		Timeslice:   des.Time(*timeslice),
		Periods:     *periods,
		Seed:        *seed,
		IncludeInit: *includeInit,
	})
	if err != nil {
		stopProf()
		fmt.Fprintln(os.Stderr, "ibsim:", err)
		os.Exit(1)
	}

	if *csv {
		fmt.Println("time_s,iws_mb,ib_mbs,recv_mb,footprint_mb")
		for i := range m.IWS.Points {
			fmt.Printf("%.2f,%.3f,%.3f,%.3f,%.1f\n",
				m.IWS.Points[i].T, m.IWS.Points[i].V, m.IB.Points[i].V,
				m.Recv.Points[i].V, m.Footprint.Points[i].V)
		}
		fmt.Println()
	}

	fmt.Printf("application      : %s on %d ranks, timeslice %v\n", m.App, m.Ranks, m.Timeslice)
	fmt.Printf("footprint        : avg %.1f MB, max %.1f MB\n", m.AvgFootprintMB, m.MaxFootprintMB)
	fmt.Printf("incremental BW   : avg %.1f MB/s, max %.1f MB/s (init excluded)\n", m.AvgIBMBs, m.MaxIBMBs)
	fmt.Printf("instrumentation  : %.1f%% slowdown\n", m.Slowdown*100)
	fmt.Printf("headroom         : %.1fx network (900 MB/s), %.1fx disk (320 MB/s)\n",
		m.NetworkHeadroom, m.DiskHeadroom)
	if m.Feasible() {
		fmt.Println("verdict          : FEASIBLE — requirement fits both sinks")
	} else {
		fmt.Println("verdict          : NOT FEASIBLE at this timeslice")
	}
}
