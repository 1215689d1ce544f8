package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/storage"
)

func TestPercentileAndIQR(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7} // sorted: 1 3 5 7 9
	for _, c := range []struct {
		p, want float64
	}{{0, 1}, {0.25, 3}, {0.5, 5}, {0.75, 7}, {0.9, 8.2}, {1, 9}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{4, 2}); got != 3 {
		t.Errorf("median of two = %v, want 3", got)
	}
	if got := iqr(xs); got != 4 {
		t.Errorf("iqr = %v, want 4", got)
	}
	if got := median(nil); !math.IsNaN(got) {
		t.Errorf("median of nothing = %v, want NaN", got)
	}
	if xs[0] != 9 {
		t.Error("percentile sorted its argument in place")
	}
}

// TestSpanSelfTime pins self time = span minus what its children cover,
// on a fixture: root 100 → {a 30 → {a1 10}, b 20}.
func TestSpanSelfTime(t *testing.T) {
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	r := &recorder{spans: []span{
		{Name: "root", Start: us(0), End: us(100), Parent: -1},
		{Name: "a", Start: us(10), End: us(40), Parent: 0, Bytes: 7},
		{Name: "a1", Start: us(15), End: us(25), Parent: 1},
		{Name: "b", Start: us(50), End: us(70), Parent: 0},
		{Name: "a", Start: us(80), End: us(90), Parent: 0, Bytes: 5},
	}}
	got := r.totals()
	want := map[string]spanTotals{
		"root": {Count: 1, Total: us(100), Self: us(40)},
		"a":    {Count: 2, Total: us(40), Self: us(30)},
		"a1":   {Count: 1, Total: us(10), Self: us(10)},
		"b":    {Count: 1, Total: us(20), Self: us(20)},
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: got %+v, want %+v", name, got[name], w)
		}
	}
	var self time.Duration
	for _, s := range got {
		self += s.Self
	}
	if self != us(100) {
		t.Errorf("self times sum to %v, want the root's 100µs", self)
	}

	var buf bytes.Buffer
	if err := r.writeChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace is not a JSON array: %v", err)
	}
	if len(events) != len(r.spans) || events[1]["ph"] != "X" || events[1]["dur"] != 30.0 {
		t.Errorf("unexpected chrome events: %v", events)
	}
}

func TestRecorderNesting(t *testing.T) {
	r := newRecorder()
	outer := r.begin("outer", 0)
	inner := r.begin("inner", 3)
	r.end(inner)
	r.end(outer)
	if r.spans[inner].Parent != outer || r.spans[outer].Parent != -1 {
		t.Errorf("parents: %+v", r.spans)
	}
	defer func() {
		if recover() == nil {
			t.Error("closing a span that is not innermost did not panic")
		}
	}()
	a := r.begin("a", 0)
	r.begin("b", 0)
	r.end(a)
}

// failingStore fails every call with a fixed error.
type failingStore struct{ err error }

func (f failingStore) Put(string, []byte) error   { return f.err }
func (f failingStore) Get(string) ([]byte, error) { return nil, f.err }
func (f failingStore) Delete(string) error        { return f.err }
func (f failingStore) Keys() ([]string, error)    { return nil, f.err }
func (f failingStore) Size() (uint64, error)      { return 0, f.err }

// TestTimedStoreContract holds the timing decorator to the store
// contract the repo's own stores satisfy: round-trip, sorted keys, size,
// ErrNotFound on a missing key, and errors passed through unchanged.
func TestTimedStoreContract(t *testing.T) {
	tr := newStoreTrace(newRecorder())
	s := tr.wrap("storage.mem", storage.NewMemStore())
	if err := s.Put("b", []byte("two")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get("b"); err != nil || string(got) != "two" {
		t.Errorf("Get = %q, %v", got, err)
	}
	if keys, err := s.Keys(); err != nil || fmt.Sprint(keys) != "[a b]" {
		t.Errorf("Keys = %v, %v", keys, err)
	}
	if n, err := s.Size(); err != nil || n != 4 {
		t.Errorf("Size = %d, %v", n, err)
	}
	if err := s.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("a"); !errors.Is(err, storage.ErrNotFound) {
		t.Errorf("Get of a deleted key: %v, want ErrNotFound", err)
	}
	if err := s.Delete("a"); !errors.Is(err, storage.ErrNotFound) {
		t.Errorf("Delete of a missing key: %v, want ErrNotFound", err)
	}
	c := tr.counts["storage.mem"]
	if c.Puts != 2 || c.Gets != 2 || c.PutBytes != 4 || c.GetBytes != 3 {
		t.Errorf("counts: %+v", *c)
	}
	if len(tr.rec.open) != 0 {
		t.Errorf("spans left open: %v", tr.rec.open)
	}

	// A wrapped sentinel survives the decorator, identity included.
	cause := fmt.Errorf("replica 3: %w", storage.ErrCorrupt)
	f := tr.wrap("storage.integrity", failingStore{cause})
	if err := f.Put("k", nil); err != cause {
		t.Errorf("Put error %v, want the inner error itself", err)
	}
	if _, err := f.Get("k"); !errors.Is(err, storage.ErrCorrupt) {
		t.Errorf("Get error %v, want ErrCorrupt", err)
	}
	if _, err := f.Keys(); err != cause {
		t.Errorf("Keys error %v", err)
	}
	if _, err := f.Size(); err != cause {
		t.Errorf("Size error %v", err)
	}
	if err := f.Delete("k"); err != cause {
		t.Errorf("Delete error %v", err)
	}

	// Untraced: no decorator at all.
	var none *storeTrace
	plain := storage.NewMemStore()
	if none.wrap("storage.mem", plain) != storage.Store(plain) {
		t.Error("a nil trace must return the store itself")
	}
}

// TestStackSelfTimes checks the traced stack end to end: one put through
// the mirror reaches both replicas, and the layers' self times add up to
// the outermost span.
func TestStackSelfTimes(t *testing.T) {
	tr := newStoreTrace(newRecorder())
	st, err := buildStack(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 4096)
	if err := st.top.Put("rank000/seg000001", payload); err != nil {
		t.Fatal(err)
	}
	if got, err := st.top.Get("rank000/seg000001"); err != nil || len(got) != len(payload) {
		t.Fatalf("Get = %d bytes, %v", len(got), err)
	}
	if c := tr.counts[layerMirror]; c.Puts != 1 || c.Gets != 1 {
		t.Errorf("mirror counts %+v", *c)
	}
	if c := tr.counts[layerMem]; c.Puts != 2 || c.Gets != 1 || c.PutBytes <= 2*4096 {
		t.Errorf("mem counts %+v: want 2 enveloped puts, 1 get", *c)
	}
	totals := tr.rec.totals()
	var self time.Duration
	for _, s := range totals {
		self += s.Self
	}
	top := totals[layerMirror+".put"].Total + totals[layerMirror+".get"].Total
	if self != top {
		t.Errorf("self times sum to %v, outermost spans to %v", self, top)
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitName = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestCatalogueWellFormed(t *testing.T) {
	seen := make(map[string]bool)
	known := make(map[string]bool)
	for _, w := range workloads() {
		known[w.name] = true
		if !metricName.MatchString(w.name) || seen[w.name] {
			t.Errorf("workload name %q malformed or reused", w.name)
		}
		seen[w.name] = true
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, is %d", w.name, len(w.why))
		}
		if tracedOps%w.variants != 0 || retainedAfter < w.variants {
			t.Errorf("%s: %d variants do not divide the %d traced ops", w.name, w.variants, tracedOps)
		}
	}
	haveSetup := false
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q malformed or reused", d.Name)
		}
		seen[d.Name] = true
		if !unitName.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != lower && d.Better != higher {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
		for _, w := range d.On {
			if !known[w] {
				t.Errorf("%s: measured on unknown workload %q", d.Name, w)
			}
		}
		if d.Name == "setup_s" {
			haveSetup = d.Unit == "s" && d.Better == lower
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Bound > endToEnd[len(endToEnd)-1].Bound {
			t.Errorf("%s: setup_s must carry the largest bound", d.Name)
		}
	}
	for _, d := range perLayer {
		if d.Source == "" || d.Moves == "" || len(d.On) == 0 || d.layer() == "" {
			t.Errorf("%s: per-layer metrics name their layer, source, workloads and the metric they move", d.Name)
		}
	}
	if !haveSetup {
		t.Error("no setup_s metric in seconds, lower better")
	}
	if n := len(perLayer); n > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", n)
	}
}

// TestGeneratedFilesInStep keeps BENCHMARK.json and METRICS.md equal to
// what the catalogue generates. BENCHMARK.json sits at the repository
// root, one directory up.
func TestGeneratedFilesInStep(t *testing.T) {
	for path, want := range map[string]string{
		"../BENCHMARK.json": benchmarkJSON(),
		"METRICS.md":        catalogueMarkdown(),
	} {
		got, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if string(got) != want {
			t.Errorf("%s is out of step with metrics.go; regenerate it with -print-spec / -print-catalogue", path)
		}
	}
	if len(benchmarkJSON()) > 64<<10 {
		t.Error("BENCHMARK.json exceeds 64 KiB")
	}
}

func TestConform(t *testing.T) {
	defs := []metricDef{
		{Name: "x.always", On: onAll},
		{Name: "x.sage_only", On: []string{wSage}},
	}
	got := map[string]float64{"x.always": 1}
	if err := conform(defs, wIWS, got); err != nil {
		t.Errorf("idle metric absent: %v", err)
	}
	if v, ok := got["x.sage_only"]; !ok || v != 0 {
		t.Error("idle metric was not filled in as 0")
	}
	for name, m := range map[string]map[string]float64{
		"missing":    {},
		"undeclared": {"x.always": 1, "x.other": 2},
		"not idle":   {"x.always": 1, "x.sage_only": 3},
	} {
		if err := conform(defs, wIWS, m); err == nil {
			t.Errorf("%s: conform accepted %v", name, m)
		}
	}
	if err := finite(map[string]float64{"x": math.NaN()}); err == nil {
		t.Error("finite accepted NaN")
	}
}

func TestSubSeed(t *testing.T) {
	seen := make(map[uint64]bool)
	for seed := uint64(0); seed < 50; seed++ {
		for v := 0; v < 8; v++ {
			s := subSeed(seed, v)
			if s == 0 || seen[s] {
				t.Fatalf("subSeed(%d, %d) = %d: zero or repeated", seed, v, s)
			}
			seen[s] = true
		}
	}
	if subSeed(7, 3) != subSeed(7, 3) {
		t.Error("subSeed is not a function of its arguments")
	}
}

// parseResult returns the driver's result line, the last line of out.
func parseResult(t *testing.T, out string) resultLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out)
	}
	return r
}

// TestEveryWorkloadOneOp sets every workload up at a held-out seed and
// runs one operation through its verification.
func TestEveryWorkloadOneOp(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload once")
	}
	for _, w := range workloads() {
		inst, err := w.setup(13)
		if err != nil {
			t.Errorf("%s: set-up: %v", w.name, err)
			continue
		}
		fp, err := inst.run(subSeed(13, 0), nil)
		if err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		if fp == 0 {
			t.Errorf("%s: empty fingerprint", w.name)
		}
	}
}

// TestResultLines drives the command's entry point on the cheapest
// workload, untraced and traced, and holds each result line to its
// declared metric set.
func TestResultLines(t *testing.T) {
	if testing.Short() {
		t.Skip("runs store-service untraced and traced")
	}
	for _, c := range []struct {
		trace string
		defs  []metricDef
	}{{"0", endToEnd}, {"1", perLayer}} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"--workload", wStore, "--seed", "13", "--ops", "2", "--trace", c.trace}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("trace %s: exit %d\n%s", c.trace, code, stderr.String())
		}
		r := parseResult(t, stdout.String())
		if !r.Correct || r.Attempted < 2 || r.Failed != 0 {
			t.Errorf("trace %s: %+v", c.trace, r)
		}
		if len(r.Metrics) != len(c.defs) {
			t.Errorf("trace %s: %d metrics in the result line, want %d", c.trace, len(r.Metrics), len(c.defs))
		}
		for _, d := range c.defs {
			m, ok := r.Metrics[d.Name]
			if !ok || m.Unit != d.Unit {
				t.Errorf("trace %s: %s = %+v (present %v)", c.trace, d.Name, m, ok)
			}
			if c.trace == "0" && !(m.Value > 0) {
				t.Errorf("end-to-end metric %s is %v; it must never be 0", d.Name, m.Value)
			}
			if !strings.Contains(stdout.String(), d.Name+" ") {
				t.Errorf("trace %s: %s not printed by name", c.trace, d.Name)
			}
		}
	}
}

// TestFailureExitsNonZero: a failed operation is named on standard error
// and the command exits non-zero with correct=false.
func TestFailureExitsNonZero(t *testing.T) {
	rep := &report{defs: endToEnd, metrics: map[string]float64{}}
	rep.attempted = 2
	rep.fail(1, "x", errors.New("boom"))
	if rep.failed != 1 || !strings.Contains(rep.firstFailure, "op 1") {
		t.Errorf("failure not recorded by op: %+v", rep)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "no-such"}, &stdout, &stderr); code == 0 {
		t.Error("unknown workload exited 0")
	}
}

// TestSeedSweep is the robustness sweep behind the README's claim that
// no seed fails an operation: BENCH_SWEEP=<workload>:<from>:<to> runs
// every variant of every seed in the range once. Skipped by default.
func TestSeedSweep(t *testing.T) {
	spec := os.Getenv("BENCH_SWEEP")
	if spec == "" {
		t.Skip("set BENCH_SWEEP=<workload>:<from>:<to>")
	}
	var name string
	var from, to uint64
	parts := strings.Split(spec, ":")
	if len(parts) != 3 {
		t.Fatalf("BENCH_SWEEP=%q, want <workload>:<from>:<to>", spec)
	}
	name = parts[0]
	if _, err := fmt.Sscan(parts[1], &from); err != nil {
		t.Fatal(err)
	}
	if _, err := fmt.Sscan(parts[2], &to); err != nil {
		t.Fatal(err)
	}
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	for seed := from; seed <= to; seed++ {
		inst, err := w.setup(seed)
		if err != nil {
			t.Errorf("seed %d: set-up: %v", seed, err)
			continue
		}
		for v := 0; v < w.variants; v++ {
			if _, err := inst.run(subSeed(seed, v), nil); err != nil {
				t.Errorf("seed %d variant %d: %v", seed, v, err)
			}
		}
	}
}
