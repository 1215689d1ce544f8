// Command benchmark is the repo's benchmark: six self-verifying
// workloads driven through the library's public functions from one
// goroutine in a closed loop, reporting end-to-end metrics untraced and
// a per-layer ladder traced from outside. See README.md in this
// directory and BENCHMARK.json at the repository root.
//
//	bash benchmark/run.sh --workload heal-stencil --seed 7 --seconds 10 --trace 0
//	bash benchmark/run.sh --workload all --trace 1 --out /tmp/traces
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	// One client, two processors: the simulator's own parallelism (shard
	// workers, the concurrent collector) gets the second core and nothing
	// else does, whatever the host has. Recorded as harness.gomaxprocs.
	runtime.GOMAXPROCS(2)

	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name, or \"all\" for one fresh process per workload")
	fs.Uint64Var(&o.seed, "seed", 7, "seed every generated input derives from")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "length of the measured phase (untraced run)")
	fs.IntVar(&o.ops, "ops", 0, "measure exactly this many operations instead of -seconds")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics")
	fs.StringVar(&o.out, "out", "", "directory for trace-<workload>.json (traced run; empty: keep spans in memory only)")
	printSpec := fs.Bool("print-spec", false, "print BENCHMARK.json as the catalogue defines it and exit")
	printCatalogue := fs.Bool("print-catalogue", false, "print METRICS.md as the catalogue defines it and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace != 0
	switch {
	case *printSpec:
		fmt.Fprint(stdout, benchmarkJSON())
		return 0
	case *printCatalogue:
		fmt.Fprint(stdout, catalogueMarkdown())
		return 0
	case o.workload == "all":
		return runAll(args, stdout, stderr)
	}
	w, ok := workloadByName(o.workload)
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", o.workload)
		return 2
	}

	var rep *report
	var err error
	if o.trace {
		rep, err = traced(w, o)
	} else {
		rep, err = measure(w, o)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	if rep.failed == 0 {
		if err := conform(rep.defs, w.name, rep.metrics); err == nil {
			err = finite(rep.metrics)
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
	}
	printReport(stdout, w, o, rep)
	if rep.failed > 0 {
		fmt.Fprintf(stderr, "benchmark: %s: %d of %d operations failed; first: %s\n", w.name, rep.failed, rep.attempted, rep.firstFailure)
		return 1
	}
	return 0
}

// runAll re-executes this binary once per workload, so memory metrics
// are each workload's own, and fails if any child does.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	status := 0
	for _, w := range workloads() {
		cmd := exec.Command(self, append(append([]string(nil), args...), "-workload", w.name)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			status = 1
		}
	}
	return status
}

// resultLine is the driver's contract: the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printReport(out io.Writer, w workloadDef, o options, rep *report) {
	mode := "end-to-end, tracing off"
	if o.trace {
		mode = "per-layer, traced"
	}
	fmt.Fprintf(out, "# %s  seed %d  %s  attempted %d  failed %d\n", w.name, o.seed, mode, rep.attempted, rep.failed)
	for _, n := range rep.notes {
		fmt.Fprintf(out, "# %s\n", n)
	}
	line := resultLine{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: make(map[string]metricValue)}
	for _, d := range rep.defs {
		v, ok := rep.metrics[d.Name]
		if !ok {
			continue
		}
		idle := ""
		if len(d.On) > 0 && !d.on(w.name) {
			idle = "  (layer idle on this workload)"
		}
		fmt.Fprintf(out, "%-42s %16.6g %s%s\n", d.Name, v, d.Unit, idle)
		line.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	enc, err := json.Marshal(line)
	if err != nil {
		// Unreachable: finite() has vetted every value.
		panic(err)
	}
	fmt.Fprintf(out, "%s\n", enc)
}

// benchmarkJSON renders the catalogue in the driver's BENCHMARK.json
// schema.
func benchmarkJSON() string {
	type workloadJSON struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2eJSON struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerJSON struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	spec := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadJSON `json:"workloads"`
		EndToEnd   []e2eJSON      `json:"end_to_end"`
		PerLayer   []layerJSON    `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads() {
		spec.Workloads = append(spec.Workloads, workloadJSON{w.name, w.why})
	}
	for _, d := range endToEnd {
		spec.EndToEnd = append(spec.EndToEnd, e2eJSON{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		spec.PerLayer = append(spec.PerLayer, layerJSON{d.Name, d.Unit, d.Better})
	}
	enc, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		panic(err)
	}
	return string(enc) + "\n"
}

// runSeconds is BENCHMARK.json's run_seconds: how long the driver asks
// one run to measure.
const runSeconds = 10

// catalogueMarkdown renders what BENCHMARK.json's schema has no room
// for: each per-layer metric's source, the workloads that measure it,
// and the end-to-end metric it should move.
func catalogueMarkdown() string {
	var b []byte
	add := func(format string, a ...any) { b = fmt.Appendf(b, format, a...) }
	add("# Metric catalogue\n\nGenerated by `-print-catalogue` from `metrics.go`; a test keeps it in step.\n\n")
	add("## End-to-end (tracing off, every workload)\n\n| metric | unit | better | regression bound |\n|---|---|---|---|\n")
	for _, d := range endToEnd {
		add("| `%s` | %s | %s | %.0f %% |\n", d.Name, d.Unit, d.Better, d.Bound*100)
	}
	add("\n## Per-layer (traced run)\n\nSource: **c** public counter read after each op (repeats exactly per seed), **d** timing decorator or counting hook, **l** ladder rung, **h** harness. A metric reads 0 on workloads outside its \"measured on\" list: the layer is idle there.\n")
	layers := make(map[string][]metricDef)
	var order []string
	for _, d := range perLayer {
		if layers[d.layer()] == nil {
			order = append(order, d.layer())
		}
		layers[d.layer()] = append(layers[d.layer()], d)
	}
	for _, layer := range order {
		add("\n### %s\n\n| metric | unit | better | source | measured on | should move |\n|---|---|---|---|---|---|\n", layer)
		for _, d := range layers[layer] {
			on := append([]string(nil), d.On...)
			sort.Strings(on)
			measured := fmt.Sprint(on)
			if len(on) == len(onAll) {
				measured = "all"
			}
			add("| `%s` | %s | %s | %s | %s | %s |\n", d.Name, d.Unit, d.Better, d.Source, measured, d.Moves)
		}
	}
	return string(b)
}
