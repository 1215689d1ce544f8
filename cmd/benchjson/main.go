// Command benchjson converts `go test -bench -benchmem` output on
// stdin into machine-readable JSON on stdout: one record per benchmark
// with ns/op, B/op and allocs/op, sorted by name so the output is
// byte-stable across runs of the same measurements. The lines of one
// benchmark run several times (-count) merge into one record (see
// merge). CI archives the result (BENCH.json) as a per-commit
// performance artifact.
//
// With -compare it instead reads two such files and prints a
// per-benchmark before/after table. The gate is allocs/op, which a change
// controls: the exit status is 1 when it rises, by more than the noise
// allowance (see allocSlack), on any benchmark present in both files, or
// when a benchmark of the old file is missing from the new one — a
// deleted benchmark would otherwise leave the gate unnoticed.
// ns/op depends on the host the snapshot was taken on and is reported
// with its ratio only.
//
// Usage:
//
//	go test -bench . -benchmem -count 3 ./... | benchjson > BENCH.json
//	benchjson -compare BENCH_<n>.json BENCH.json   # the newest committed snapshot
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// Record is one benchmark measurement. Fields mirror testing.B output;
// B/op and allocs/op are -1 when the benchmark did not report them.
type Record struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

func parseLine(line string) (Record, bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return Record{}, false
	}
	fields := strings.Fields(line)
	// Shortest valid shape: name, iterations, value, "ns/op".
	if len(fields) < 4 {
		return Record{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Record{}, false
	}
	r := Record{Name: fields[0], Iterations: iters, BytesPerOp: -1, AllocsPerOp: -1}
	ok := false
	for i := 2; i+1 < len(fields); i += 2 {
		v := fields[i]
		switch fields[i+1] {
		case "ns/op":
			if f, err := strconv.ParseFloat(v, 64); err == nil {
				r.NsPerOp = f
				ok = true
			}
		case "B/op":
			if n, err := strconv.ParseInt(v, 10, 64); err == nil {
				r.BytesPerOp = n
			}
		case "allocs/op":
			if n, err := strconv.ParseInt(v, 10, 64); err == nil {
				r.AllocsPerOp = n
			}
		}
	}
	return r, ok
}

// procsRe matches the GOMAXPROCS suffix testing appends to a benchmark
// name ("-8"); two hosts' snapshots are matched without it.
var procsRe = regexp.MustCompile(`-\d+$`)

func readRecords(path string) (map[string]Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []Record
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	byName := make(map[string]Record, len(recs))
	for _, r := range recs {
		byName[procsRe.ReplaceAllString(r.Name, "")] = r
	}
	return byName, nil
}

// allocSlack is how far allocs/op may rise before the gate trips. A
// snapshot (`make benchjson`) times each benchmark for one iteration,
// three times over, and keeps the fewest allocations (merge); a count
// still includes whatever the runtime allocated meanwhile, and two
// snapshots of one tree differ by up to 0.15 % on the whole-artefact
// benchmarks (EXPERIMENTS.md § A space's allocator state is its live
// regions). The allowance is the larger of 8 allocations and 0.5 %.
func allocSlack(old int64) int64 { return max(8, old/200) }

// compare writes the before/after table of the benchmarks present in both
// snapshots, in name order, then the names present in only one. It returns
// how many benchmarks fail the gate: those that raised allocs/op and those
// only in old.
func compare(w io.Writer, old, cur map[string]Record) int {
	var both, onlyOld, onlyNew []string
	for name := range old {
		if _, ok := cur[name]; ok {
			both = append(both, name)
		} else {
			onlyOld = append(onlyOld, name)
		}
	}
	for name := range cur {
		if _, ok := old[name]; !ok {
			onlyNew = append(onlyNew, name)
		}
	}
	sort.Strings(both)
	sort.Strings(onlyOld)
	sort.Strings(onlyNew)

	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "benchmark\tallocs/op old\tnew\tns/op old\tnew\tratio\t")
	worse := 0
	for _, name := range both {
		o, c := old[name], cur[name]
		mark := ""
		if o.AllocsPerOp >= 0 && c.AllocsPerOp > o.AllocsPerOp+allocSlack(o.AllocsPerOp) {
			mark = "  ALLOCS UP"
			worse++
		}
		ratio := "-"
		if o.NsPerOp > 0 {
			ratio = fmt.Sprintf("%.2f", c.NsPerOp/o.NsPerOp)
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.0f\t%.0f\t%s\t%s\n", name, o.AllocsPerOp, c.AllocsPerOp, o.NsPerOp, c.NsPerOp, ratio, mark)
	}
	tw.Flush()
	for _, name := range onlyOld {
		fmt.Fprintf(w, "only in old: %s  GONE\n", name)
		worse++
	}
	for _, name := range onlyNew {
		fmt.Fprintf(w, "only in new: %s\n", name)
	}
	return worse
}

// merge sorts recs by name and folds the records of each name — one
// benchmark's runs under -count — into one: the fewest allocs/op and
// B/op, since a run's count is the code's own plus whatever the runtime
// allocated meanwhile, the median ns/op (the upper of the middle two for
// an even count) and the iterations summed.
func merge(recs []Record) []Record {
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Name < recs[j].Name })
	var out []Record
	for i := 0; i < len(recs); {
		j := i + 1
		for j < len(recs) && recs[j].Name == recs[i].Name {
			j++
		}
		m, ns := recs[i], make([]float64, 0, j-i)
		m.Iterations = 0
		for _, r := range recs[i:j] {
			m.Iterations += r.Iterations
			m.BytesPerOp = min(m.BytesPerOp, r.BytesPerOp)
			m.AllocsPerOp = min(m.AllocsPerOp, r.AllocsPerOp)
			ns = append(ns, r.NsPerOp)
		}
		sort.Float64s(ns)
		m.NsPerOp = ns[len(ns)/2]
		out = append(out, m)
		i = j
	}
	return out
}

func runCompare(oldPath, newPath string) int {
	old, err := readRecords(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	cur, err := readRecords(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	if worse := compare(os.Stdout, old, cur); worse > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: %d benchmark(s) of %s allocate more or are gone\n", worse, oldPath)
		return 1
	}
	return 0
}

func main() {
	baseline := flag.String("compare", "", "baseline snapshot: compare it with the snapshot named by the argument instead of converting stdin")
	flag.Parse()
	if *baseline != "" {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: benchjson -compare old.json new.json")
			os.Exit(2)
		}
		os.Exit(runCompare(*baseline, flag.Arg(0)))
	}
	var recs []Record
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		if r, ok := parseLine(strings.TrimSpace(sc.Text())); ok {
			recs = append(recs, r)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	out, err := json.MarshalIndent(merge(recs), "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
