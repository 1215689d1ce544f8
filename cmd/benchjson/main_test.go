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

// Three runs of one benchmark merge into one record: the fewest allocs/op
// and B/op, the median ns/op, the iterations summed; a benchmark run once
// passes through, and the output stays sorted by name.
func TestMergeKeepsFewestAllocsAndMedianTime(t *testing.T) {
	got := merge([]Record{
		{Name: "BenchmarkZ-2", Iterations: 1, NsPerOp: 30, BytesPerOp: 900, AllocsPerOp: 8},
		{Name: "BenchmarkA-2", Iterations: 5, NsPerOp: 7, BytesPerOp: -1, AllocsPerOp: -1},
		{Name: "BenchmarkZ-2", Iterations: 1, NsPerOp: 10, BytesPerOp: 700, AllocsPerOp: 4},
		{Name: "BenchmarkZ-2", Iterations: 1, NsPerOp: 20, BytesPerOp: 800, AllocsPerOp: 3},
	})
	want := []Record{
		{Name: "BenchmarkA-2", Iterations: 5, NsPerOp: 7, BytesPerOp: -1, AllocsPerOp: -1},
		{Name: "BenchmarkZ-2", Iterations: 3, NsPerOp: 20, BytesPerOp: 700, AllocsPerOp: 3},
	}
	if len(got) != len(want) {
		t.Fatalf("merge = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d = %+v, want %+v", i, got[i], want[i])
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
	if worse := compare(&out, old, cur); worse != 2 {
		t.Errorf("compare reported %d gate failures, want 2 (BenchmarkB up, BenchmarkGone gone)\n%s", worse, out.String())
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

// A benchmark the old snapshot has and the new one lacks fails the gate,
// through the exit status, however few it allocated; one only in the new
// snapshot does not.
func TestCompareFailsOnVanishedBenchmark(t *testing.T) {
	dir := t.TempDir()
	write := func(name, data string) string {
		path := dir + "/" + name
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	old := write("old.json", `[{"name":"BenchmarkKept-4","allocs_per_op":0},{"name":"BenchmarkGone-4","allocs_per_op":0}]`)
	gone := write("gone.json", `[{"name":"BenchmarkKept-2","allocs_per_op":0}]`)
	grown := write("grown.json", `[{"name":"BenchmarkKept-2","allocs_per_op":0},{"name":"BenchmarkGone-2","allocs_per_op":0},{"name":"BenchmarkNew-2","allocs_per_op":5}]`)
	if code := runCompare(old, gone); code != 1 {
		t.Errorf("a vanished benchmark: exit %d, want 1", code)
	}
	if code := runCompare(old, grown); code != 0 {
		t.Errorf("every old benchmark kept, one added: exit %d, want 0", code)
	}
	var out strings.Builder
	if worse := compare(&out, map[string]Record{"BenchmarkGone": {AllocsPerOp: -1}}, nil); worse != 1 || !strings.Contains(out.String(), "only in old: BenchmarkGone  GONE") {
		t.Errorf("a vanished benchmark without an allocs count: %d failures\n%s", worse, out.String())
	}
}

func TestReadRecordsDropsProcsSuffix(t *testing.T) {
	path := t.TempDir() + "/b.json"
	data := `[{"name":"BenchmarkArtefact/fig1-4","ns_per_op":5,"allocs_per_op":3},{"name":"BenchmarkX-16","ns_per_op":1}]`
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := readRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if recs["BenchmarkArtefact/fig1"].AllocsPerOp != 3 || recs["BenchmarkX"].NsPerOp != 1 || len(recs) != 2 {
		t.Fatalf("records = %+v", recs)
	}
	if _, err := readRecords(path + ".missing"); err == nil {
		t.Fatal("missing file accepted")
	}
}
