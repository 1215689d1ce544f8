package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	// setupReps is how many times a run sets the workload up; setup_s is
	// the median, so one cold first pass does not decide it.
	setupReps = 3
	// warmupOps run before timing, inside set-up: caches fill and lazy
	// initialisation finishes where it is reported, not in op_ms_p50.
	warmupOps = 2
	// retainedAfter is the measured op after which retained_heap_MB is
	// read. The count is fixed so that a library leaking per operation
	// reads the same on a fast and on a slow host; a timed run therefore
	// measures at least this many operations.
	retainedAfter = 16
	// tracedOps is how many operations a traced run executes bare and
	// then again traced. Fixed, and a multiple of every workload's
	// variant count, so the per-op counter means repeat exactly per seed.
	tracedOps = 8
	// wallLimit is the contract's per-run time window, with margin.
	wallLimit = 150 * time.Second
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	ops      int
	trace    bool
	out      string
}

// report is one run's outcome: the driver's result line plus the
// human-readable rows printed above it.
type report struct {
	attempted, failed int
	firstFailure      string
	defs              []metricDef
	metrics           map[string]float64
	notes             []string
}

func (r *report) fail(op int, what string, err error) {
	r.failed++
	msg := fmt.Sprintf("op %d (%s): %v", op, what, err)
	if r.firstFailure == "" {
		r.firstFailure = msg
	}
	fmt.Fprintln(os.Stderr, "FAILED", msg)
}

// prepared is a workload set up and warmed.
type prepared struct {
	inst instance
	// first holds the fingerprint each variant's sub-seed produced the
	// first time it ran; every later op on that variant must match.
	first map[int]uint64
}

// prepare is the whole of what setup_s times: build the instance (parse
// schedules, build domain maps, compute reference fingerprints) and run
// the warm-up operations.
func prepare(w workloadDef, seed uint64) (*prepared, error) {
	inst, err := w.setup(seed)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	p := &prepared{inst: inst, first: make(map[int]uint64)}
	for i := 0; i < warmupOps; i++ {
		if err := p.runOp(w, seed, i, nil); err != nil {
			return nil, fmt.Errorf("warm-up op %d: %w", i, err)
		}
	}
	return p, nil
}

// runOp executes op i bare or traced and holds its fingerprint against
// the first one its variant produced.
func (p *prepared) runOp(w workloadDef, seed uint64, i int, tr *opTrace) error {
	v := i % w.variants
	fp, err := p.inst.run(subSeed(seed, v), tr)
	if err != nil {
		return err
	}
	if want, ok := p.first[v]; !ok {
		p.first[v] = fp
	} else if fp != want {
		return fmt.Errorf("fingerprint %016x differs from %016x, the first result on the same sub-seed: not deterministic", fp, want)
	}
	return nil
}

// cpuTime is the process's CPU time so far, user plus system, every
// thread: the collector's and the shard workers' included. On a shared
// host it is the steady clock — time the hypervisor gives to a neighbour
// is stolen from wall-clock time but never charged here.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("benchmark: getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// timeIt returns fn's wall-clock time.
func timeIt(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// timeBoth returns fn's wall-clock and CPU time.
func timeBoth(fn func()) (wall, cpu time.Duration) {
	c0, t0 := cpuTime(), time.Now()
	fn()
	return time.Since(t0), cpuTime() - c0
}

// stealTicks reads the host-steal column of /proc/stat's cpu line, in
// clock ticks; 0 where there is none.
func stealTicks() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return v
}

// stealPct is the share of the host's CPU capacity stolen since the
// (ticks, instant) pair was taken, assuming the usual 100 Hz tick.
func stealPct(ticks0 float64, t0 time.Time) float64 {
	capacity := time.Since(t0).Seconds() * 100 * float64(runtime.NumCPU())
	if capacity <= 0 {
		return 0
	}
	return (stealTicks() - ticks0) / capacity * 100
}

// heapAfterGC returns the live heap after collection, with the stats it
// was read from. Two cycles: the first runs finalizers, the second frees
// what they released.
func heapAfterGC() runtime.MemStats {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// measure is the untraced run: set-up, then a closed loop of operations
// from this one goroutine for o.seconds (or exactly o.ops operations),
// every operation verified, reporting the end-to-end metrics.
func measure(w workloadDef, o options) (*report, error) {
	start := time.Now()
	rep := &report{defs: endToEnd, metrics: make(map[string]float64)}

	var setups []float64
	var p *prepared
	for i := 0; i < setupReps; i++ {
		var err error
		_, cpu := timeBoth(func() { p, err = prepare(w, o.seed) })
		if err != nil {
			return nil, err
		}
		setups = append(setups, cpu.Seconds())
	}

	var samples, walls []float64
	// atRetained and afterRetained bracket the forced collection that
	// follows op number retainedAfter (or the last op of a shorter run).
	var atRetained, afterRetained runtime.MemStats
	haveRetained := false
	begin := heapAfterGC()
	loopStart, steal0 := time.Now(), stealTicks()
	for i := 0; ; i++ {
		if o.ops > 0 {
			if i >= o.ops {
				break
			}
		} else if i >= retainedAfter && time.Since(loopStart).Seconds() >= o.seconds {
			break
		}
		if time.Since(start) > wallLimit {
			return nil, fmt.Errorf("measured phase still running after %v: outside the contract's time window (op %d)", wallLimit, i)
		}
		var err error
		wall, cpu := timeBoth(func() { err = p.runOp(w, o.seed, i, nil) })
		rep.attempted++
		if err != nil {
			rep.fail(i, w.name, err)
			continue
		}
		samples = append(samples, ms(cpu))
		walls = append(walls, ms(wall))
		if i+1 == retainedAfter {
			runtime.ReadMemStats(&atRetained)
			afterRetained = heapAfterGC()
			haveRetained = true
		}
	}
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	stolen := stealPct(steal0, loopStart)
	if !haveRetained {
		atRetained = end
		afterRetained = heapAfterGC()
	}
	if len(samples) == 0 {
		return rep, nil
	}

	n := float64(rep.attempted)
	rep.metrics["setup_s"] = median(setups)
	rep.metrics["op_cpu_ms_p50"] = median(samples)
	rep.metrics["allocs_per_op"] = float64(end.Mallocs-begin.Mallocs) / n
	rep.metrics["alloc_MB_per_op"] = float64(end.TotalAlloc-begin.TotalAlloc) / 1e6 / n
	rep.metrics["retained_heap_MB"] = float64(afterRetained.HeapAlloc) / 1e6

	// GC work of the operations up to the retained-heap reading, so the
	// forced collections around it stay out.
	gcOps := float64(min(rep.attempted, retainedAfter))
	cycles := float64(atRetained.NumGC-begin.NumGC) / gcOps
	pause := float64(atRetained.PauseTotalNs-begin.PauseTotalNs) / 1e6 / gcOps
	rep.notes = append(rep.notes,
		fmt.Sprintf("samples %d  op_cpu_ms p90 %.3f  iqr %.3f  min %.3f  max %.3f", len(samples), percentile(samples, 0.9), iqr(samples), percentile(samples, 0), percentile(samples, 1)),
		fmt.Sprintf("wall-clock op_ms p50 %.3f  p90 %.3f  iqr %.3f  host steal %.1f%%", median(walls), percentile(walls, 0.9), iqr(walls), stolen),
		fmt.Sprintf("setup_s samples %v", setups),
		fmt.Sprintf("gc cycles/op %.2f  gc pause ms/op %.3f  peak rss %.1f MB  goroutines %d", cycles, pause, peakRSSMB(), runtime.NumGoroutine()),
		fmt.Sprintf("gomaxprocs %d  numcpu %d  %s  wall %.1fs", runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), time.Since(start).Seconds()),
	)
	return rep, nil
}

// traced is the per-layer run: tracedOps operations bare, the same
// operations again with the decorators and counting hooks installed,
// then the workload's ladder.
func traced(w workloadDef, o options) (*report, error) {
	rep := &report{defs: perLayer, metrics: make(map[string]float64)}
	p, err := prepare(w, o.seed)
	if err != nil {
		return nil, err
	}

	var bare, bareCPU, withTrace []float64
	begin := heapAfterGC()
	loopStart, steal0 := time.Now(), stealTicks()
	for i := 0; i < tracedOps; i++ {
		var err error
		wall, cpu := timeBoth(func() { err = p.runOp(w, o.seed, i, nil) })
		rep.attempted++
		if err != nil {
			rep.fail(i, w.name, err)
			continue
		}
		bare = append(bare, ms(wall))
		bareCPU = append(bareCPU, ms(cpu))
	}
	stolen := stealPct(steal0, loopStart)
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	goroutines := runtime.NumGoroutine()

	tr := newOpTrace()
	for i := 0; i < tracedOps; i++ {
		tr.rec.op = i
		var err error
		id := tr.rec.begin("op", 0)
		_, cpu := timeBoth(func() { err = p.runOp(w, o.seed, i, tr) })
		tr.rec.end(id)
		rep.attempted++
		if err != nil {
			rep.fail(tracedOps+i, w.name+", traced", err)
			continue
		}
		withTrace = append(withTrace, ms(cpu))
	}
	if rep.failed > 0 {
		return rep, nil
	}

	m := rep.metrics
	const n = float64(tracedOps)
	for name, sum := range tr.sums {
		m[name] = sum / n
	}
	p50, cpu50 := median(bare), median(bareCPU)
	if ev, ok := m["des.events_per_op"]; ok {
		m["des.events_per_cpu_s"] = ev / (cpu50 / 1e3)
	}
	if crit, ok := m["des.crit_path_events_per_op"]; ok {
		m["des.concurrency"] = m["des.events_per_op"] / crit
	}
	decoratorMetrics(m, tr, n)

	m["harness.samples"] = float64(len(bare))
	m["harness.op_ms_p50"] = p50
	m["harness.op_ms_p90"] = percentile(bare, 0.9)
	m["harness.op_ms_iqr"] = iqr(bare)
	m["harness.host_steal_pct"] = stolen
	m["harness.traced_op_cpu_ms_p50"] = median(withTrace)
	m["harness.trace_overhead_pct"] = (median(withTrace) - cpu50) / cpu50 * 100
	m["harness.failed_ops_pct"] = float64(rep.failed) / float64(rep.attempted) * 100
	m["harness.peak_rss_MB"] = peakRSSMB()
	m["harness.gc_cycles_per_op"] = float64(end.NumGC-begin.NumGC) / n
	m["harness.gc_pause_ms_per_op"] = float64(end.PauseTotalNs-begin.PauseTotalNs) / 1e6 / n
	m["harness.goroutines_end"] = float64(goroutines)
	m["harness.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))

	l := &ladder{out: m, seed: subSeed(o.seed, 0), opP50: p50}
	if err := w.ladder(l); err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}

	if o.out != "" {
		path := filepath.Join(o.out, "trace-"+w.name+".json")
		if err := writeTrace(path, tr.rec); err != nil {
			return nil, err
		}
		rep.notes = append(rep.notes, fmt.Sprintf("trace: %s (%d spans)", path, len(tr.rec.spans)))
	}
	return rep, nil
}

// decoratorMetrics derives the (d) storage and supervisor metrics from
// the decorators' counts and span totals. Workloads that never built a
// stack contribute nothing, and the catalogue reports those as idle.
func decoratorMetrics(m map[string]float64, tr *opTrace, n float64) {
	totals := tr.rec.totals()
	if top, ok := tr.stores.counts[layerMirror]; ok {
		bottom := tr.stores.counts[layerMem]
		m["storage.puts_per_op"] = float64(top.Puts) / n
		m["storage.gets_per_op"] = float64(top.Gets) / n
		m["storage.put_MB_per_op"] = float64(top.PutBytes) / 1e6 / n
		m["storage.get_MB_per_op"] = float64(top.GetBytes) / 1e6 / n
		m["storage.stored_bytes_per_payload_byte"] = 0
		if top.PutBytes > 0 {
			m["storage.stored_bytes_per_payload_byte"] = float64(bottom.PutBytes) / float64(top.PutBytes)
		}
		m["storage.put_ms_per_op"] = ms(totals[layerMirror+".put"].Total) / n
		m["storage.get_ms_per_op"] = ms(totals[layerMirror+".get"].Total) / n
		for layer, name := range map[string]string{
			layerMirror: "storage.mirror_self_ms", layerResilient: "storage.resilient_self_ms",
			layerIntegrity: "storage.integrity_self_ms", layerMem: "storage.mem_self_ms",
		} {
			var self time.Duration
			for _, call := range []string{".put", ".get", ".delete", ".keys", ".size"} {
				self += totals[layer+call].Self
			}
			m[name] = ms(self) / n
		}
	}
	if _, ok := totals["autonomic.factory_new"]; ok {
		// Every recovery re-attaches, except a scratch restart, which
		// builds the team anew; a run of those alone reads 0.
		m["autonomic.attach_ms_per_recovery"] = 0
		if at := totals["autonomic.factory_attach"]; at.Count > 0 {
			m["autonomic.attach_ms_per_recovery"] = ms(at.Total) / float64(at.Count)
		}
	}
}

func writeTrace(path string, rec *recorder) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := rec.writeChrome(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// peakRSSMB reads the process's high-water resident set (VmHWM); 0
// where /proc is not available.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				return 0
			}
			kb, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				return 0
			}
			return kb * 1024 / 1e6
		}
	}
	return 0
}

// finite rejects NaN and ±Inf, which JSON cannot carry and which would
// mean a metric was computed from nothing.
func finite(m map[string]float64) error {
	for name, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", name, v)
		}
	}
	return nil
}
