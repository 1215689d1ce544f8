// Command benchjson converts `go test -bench -benchmem` output on
// stdin into machine-readable JSON on stdout: one record per benchmark
// with ns/op, B/op and allocs/op, sorted by name so the output is
// byte-stable across runs of the same measurements. CI archives the
// result (BENCH.json) as a per-commit performance artifact.
//
// Usage:
//
//	go test -bench . -benchmem ./... | benchjson > BENCH.json
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Record is one benchmark measurement. Fields mirror testing.B output;
// B/op and allocs/op are -1 when the benchmark did not report them.
type Record struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// SpeedupVsSeq is set on BenchmarkXxxShardsN and BenchmarkXxx/shardsN
	// records whose sequential pair BenchmarkXxx appears in the same
	// input: sequential ns/op over this record's ns/op.
	SpeedupVsSeq float64 `json:"speedup_vs_seq,omitempty"`
}

// shardsRe matches the shard-count segment of a paired sharded
// benchmark name: the "Shards8" in "BenchmarkGroupShards8-4" or the
// "/shards8" in "BenchmarkArtefact/fig1/shards8-4".
var shardsRe = regexp.MustCompile(`Shards\d+|/shards\d+`)

// annotateSpeedups fills SpeedupVsSeq on every sharded record whose
// sequential pair (the same name with the ShardsN segment removed) is
// present.
func annotateSpeedups(recs []Record) {
	byName := make(map[string]float64, len(recs))
	for _, r := range recs {
		byName[r.Name] = r.NsPerOp
	}
	for i := range recs {
		r := &recs[i]
		if !shardsRe.MatchString(r.Name) || r.NsPerOp == 0 {
			continue
		}
		if seq, ok := byName[shardsRe.ReplaceAllString(r.Name, "")]; ok {
			r.SpeedupVsSeq = seq / r.NsPerOp
		}
	}
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

func main() {
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
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Name < recs[j].Name })
	annotateSpeedups(recs)
	out, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
