package main

import (
	"os"
	"strings"
	"testing"
)

func TestParseLine(t *testing.T) {
	cases := []struct {
		line string
		want Record
		ok   bool
	}{
		{
			line: "BenchmarkFig1-8   \t      12\t  94700000 ns/op\t  123456 B/op\t  295331 allocs/op",
			want: Record{Name: "BenchmarkFig1-8", Iterations: 12, NsPerOp: 94700000, BytesPerOp: 123456, AllocsPerOp: 295331},
			ok:   true,
		},
		{
			// No -benchmem columns: B/op and allocs/op stay -1.
			line: "BenchmarkTickerHot-4 	 100000 	 15300 ns/op",
			want: Record{Name: "BenchmarkTickerHot-4", Iterations: 100000, NsPerOp: 15300, BytesPerOp: -1, AllocsPerOp: -1},
			ok:   true,
		},
		{
			// Custom metrics interleave with the standard ones.
			line: "BenchmarkSelfHealing-8 	 90 	 13100000 ns/op	 134.0 detected_period_s	 36487 allocs/op",
			want: Record{Name: "BenchmarkSelfHealing-8", Iterations: 90, NsPerOp: 13100000, BytesPerOp: -1, AllocsPerOp: 36487},
			ok:   true,
		},
		{line: "PASS", ok: false},
		{line: "ok  \trepro\t1.2s", ok: false},
		{line: "BenchmarkBroken notanumber 5 ns/op", ok: false},
		{line: "Benchmark", ok: false},
	}
	for _, c := range cases {
		got, ok := parseLine(c.line)
		if ok != c.ok {
			t.Errorf("parseLine(%q) ok = %v, want %v", c.line, ok, c.ok)
			continue
		}
		if ok && got != c.want {
			t.Errorf("parseLine(%q) = %+v, want %+v", c.line, got, c.want)
		}
	}
}

func TestAnnotateSpeedups(t *testing.T) {
	recs := []Record{
		{Name: "BenchmarkFig1-4", NsPerOp: 300},
		{Name: "BenchmarkFig1Shards8-4", NsPerOp: 100},
		{Name: "BenchmarkOrphanShards2-4", NsPerOp: 50}, // no sequential pair
		{Name: "BenchmarkTable2-4", NsPerOp: 200},       // no sharded pair
		{Name: "BenchmarkArtefact/fig1-4", NsPerOp: 800},
		{Name: "BenchmarkArtefact/fig1/shards8-4", NsPerOp: 200},
		{Name: "BenchmarkArtefact/table2/shards8-4", NsPerOp: 50}, // no sequential pair
	}
	annotateSpeedups(recs)
	if got := recs[1].SpeedupVsSeq; got != 3 {
		t.Errorf("Fig1Shards8 speedup = %v, want 3", got)
	}
	if got := recs[5].SpeedupVsSeq; got != 4 {
		t.Errorf("fig1/shards8 speedup = %v, want 4", got)
	}
	for _, i := range []int{0, 2, 3, 4, 6} {
		if recs[i].SpeedupVsSeq != 0 {
			t.Errorf("%s speedup = %v, want 0 (unset)", recs[i].Name, recs[i].SpeedupVsSeq)
		}
	}
}

func TestCompare(t *testing.T) {
	old := map[string]Record{
		"BenchmarkA":    {Name: "BenchmarkA-8", NsPerOp: 100, AllocsPerOp: 1000},
		"BenchmarkB":    {Name: "BenchmarkB-8", NsPerOp: 100, AllocsPerOp: 10},
		"BenchmarkC":    {Name: "BenchmarkC-8", NsPerOp: 100, AllocsPerOp: -1},
		"BenchmarkGone": {Name: "BenchmarkGone-8", NsPerOp: 1, AllocsPerOp: 1},
	}
	cur := map[string]Record{
		"BenchmarkA":   {Name: "BenchmarkA-2", NsPerOp: 250, AllocsPerOp: 1000 + allocSlack(1000)}, // within noise
		"BenchmarkB":   {Name: "BenchmarkB-2", NsPerOp: 50, AllocsPerOp: 19},                       // 10 -> 19: up
		"BenchmarkC":   {Name: "BenchmarkC-2", NsPerOp: 100, AllocsPerOp: 7},                       // no baseline count
		"BenchmarkNew": {Name: "BenchmarkNew-2", NsPerOp: 1, AllocsPerOp: 1},
	}
	var out strings.Builder
	if worse := compare(&out, old, cur); worse != 1 {
		t.Errorf("compare reported %d regressions, want 1 (BenchmarkB)\n%s", worse, out.String())
	}
	for _, want := range []string{"2.50", "0.50", "ALLOCS UP", "only in old: BenchmarkGone", "only in new: BenchmarkNew"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("table lacks %q:\n%s", want, out.String())
		}
	}
	if strings.Count(out.String(), "ALLOCS UP") != 1 {
		t.Errorf("more than one benchmark marked:\n%s", out.String())
	}
}

func TestReadRecordsDropsProcsSuffix(t *testing.T) {
	path := t.TempDir() + "/b.json"
	data := `[{"name":"BenchmarkArtefact/fig1/shards8-4","ns_per_op":5,"allocs_per_op":3},{"name":"BenchmarkX-16","ns_per_op":1}]`
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := readRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if recs["BenchmarkArtefact/fig1/shards8"].AllocsPerOp != 3 || recs["BenchmarkX"].NsPerOp != 1 || len(recs) != 2 {
		t.Fatalf("records = %+v", recs)
	}
	if _, err := readRecords(path + ".missing"); err == nil {
		t.Fatal("missing file accepted")
	}
}
