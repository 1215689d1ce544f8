package experiments

import (
	"fmt"
	"strings"

	"repro/internal/autonomic"
	"repro/internal/ckpt"
	"repro/internal/ckptspec"
	"repro/internal/des"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/storage"
	"repro/internal/tracker"
)

// A19: automatic checkpoint-set identification ablation. The ckptset
// analyzer classifies every kernel allocation site as must-checkpoint,
// recomputable, or unknown, and emits the protection-region spec the
// runtime consumes. This experiment measures what that analysis buys:
// each kernel runs twice — whole (every arena protected and captured,
// the paper's whole-data-segment baseline) and spec (recomputable
// regions excluded from protection and capture, restored by recompute
// hook) — and reports tracked IWS, full/incremental checkpoint bytes,
// and the crash-restore-replay bit-exactness verdict for both modes.
// The spec mode must save bytes AND stay bit-exact: excluding a region
// the solution actually needs would surface here as exact=no.

// CkptSetRow is one (kernel, mode) cell of A19.
type CkptSetRow struct {
	// Kernel names the workload; Mode is "whole" or "spec".
	Kernel, Mode string
	// Regions is the kernel's binding count; Excluded how many the
	// spec dropped from protection (0 in whole mode).
	Regions, Excluded int
	// MeanIWSPages is the tracker's mean incremental working set over
	// the run's timeslices.
	MeanIWSPages float64
	// FullKB and IncrKB are captured checkpoint payload by kind;
	// TotalKB their sum.
	FullKB, IncrKB, TotalKB float64
	// BitExact is the crash-restore-replay verdict under a seeded
	// mid-run crash.
	BitExact bool
}

// ckptSetWorkload is one supervised kernel of the A19 sweep: a named
// kernel (kernels.NewSoloKernel) sized by n, stepped iterations times.
type ckptSetWorkload struct {
	name       string
	n          int
	iterations int
}

// config is the supervised run A19 replays the kernel in, protected by
// spec s (nil: whole-process protection), with one node crash.
func (w ckptSetWorkload) config(s *ckptspec.Spec) autonomic.Config {
	return autonomic.Config{
		Workload:    autonomic.SoloFactory{Kernel: w.name, N: w.n, ComputeTime: 50 * des.Millisecond},
		Ranks:       1,
		Iterations:  w.iterations,
		CkptEvery:   3,
		ComputeTime: 50 * des.Millisecond,
		Seed:        11,
		Spec:        s,
		Faults:      "crash at 400ms..410ms",
	}
}

// ckptSetWorkloads are A19's kernels: 64×64 grids and a 4096-point FFT.
var ckptSetWorkloads = []ckptSetWorkload{
	{"stencil", 64, 12},
	{"ssor", 64, 12},
	{"wavefront", 64, 12},
	{"adi", 64, 12},
	{"fft", 4096, 12},
}

// measureIWS runs the kernel under the tracker alone and returns the
// mean per-timeslice incremental working set in pages.
func measureIWS(w ckptSetWorkload, spec *ckptspec.Spec) (float64, error) {
	eng := des.NewEngine()
	sp := mem.NewAddressSpace(mem.Config{PageSize: 4096})
	k, err := kernels.NewSoloKernel(w.name, sp, w.n)
	if err != nil {
		return 0, err
	}
	tr, err := tracker.New(eng, sp, tracker.Options{Timeslice: des.Second})
	if err != nil {
		return 0, err
	}
	spec.Apply(k.ProtectionBindings())
	tr.Start()
	var stepErr error
	step := func() {
		if stepErr == nil {
			stepErr = k.Step()
		}
	}
	for i := 0; i < w.iterations; i++ {
		eng.Schedule(des.Time(i)*des.Second+des.Millisecond, step)
	}
	eng.Run(des.Time(w.iterations+1) * des.Second)
	tr.Stop()
	if stepErr != nil {
		return 0, stepErr
	}
	ss := tr.Samples()
	if len(ss) == 0 {
		return 0, fmt.Errorf("experiments: %s produced no tracker samples", w.name)
	}
	var total float64
	for _, s := range ss {
		total += float64(s.IWSPages)
	}
	return total / float64(len(ss)), nil
}

// measureVolume runs the kernel under the checkpointer alone — a line
// after every third step, a full every fourth line — and returns the
// captured payload by kind plus the binding/exclusion counts.
func measureVolume(w ckptSetWorkload, spec *ckptspec.Spec) (fullKB, incrKB float64, regions, excluded int, err error) {
	eng := des.NewEngine()
	sp := mem.NewAddressSpace(mem.Config{PageSize: 4096})
	k, err := kernels.NewSoloKernel(w.name, sp, w.n)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	cp, err := ckpt.NewCheckpointer(eng, sp, ckpt.Options{Store: storage.NewMemStore(), FullEvery: 4})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	bindings := k.ProtectionBindings()
	regions = len(bindings)
	excluded = len(spec.Apply(bindings))
	cp.Start()
	var runErr error
	var fullPages, incrPages uint64
	steps := 0 // the events fire in schedule order, one step each
	step := func() {
		steps++
		if runErr != nil {
			return
		}
		if runErr = k.Step(); runErr != nil {
			return
		}
		if steps%3 != 0 {
			return
		}
		res, cerr := cp.Checkpoint()
		if cerr != nil {
			runErr = cerr
			return
		}
		if res.Kind == ckpt.Full {
			fullPages += res.Pages
		} else {
			incrPages += res.Pages
		}
	}
	for i := 0; i < w.iterations; i++ {
		eng.Schedule(des.Time(i)*des.Second+des.Millisecond, step)
	}
	eng.Run(des.Time(w.iterations+1) * des.Second)
	cp.Stop()
	if runErr != nil {
		return 0, 0, 0, 0, runErr
	}
	const pageKB = 4096.0 / 1024
	return float64(fullPages) * pageKB, float64(incrPages) * pageKB, regions, excluded, nil
}

// CkptSetAblation runs every kernel in whole and spec mode and returns
// one row per cell.
func CkptSetAblation() ([]CkptSetRow, error) {
	spec, err := kernels.Spec()
	if err != nil {
		return nil, fmt.Errorf("experiments: kernels spec: %w", err)
	}
	var rows []CkptSetRow
	for _, w := range ckptSetWorkloads {
		for _, mode := range []string{"whole", "spec"} {
			var s *ckptspec.Spec
			if mode == "spec" {
				s = spec
			}
			iws, err := measureIWS(w, s)
			if err != nil {
				return nil, fmt.Errorf("experiments: ckptset %s/%s iws: %w", w.name, mode, err)
			}
			fullKB, incrKB, regions, excluded, err := measureVolume(w, s)
			if err != nil {
				return nil, fmt.Errorf("experiments: ckptset %s/%s volume: %w", w.name, mode, err)
			}
			out, err := autonomic.ValidateReplay(w.config(s))
			if err != nil {
				return nil, fmt.Errorf("experiments: ckptset %s/%s replay: %w", w.name, mode, err)
			}
			rows = append(rows, CkptSetRow{
				Kernel:       w.name,
				Mode:         mode,
				Regions:      regions,
				Excluded:     excluded,
				MeanIWSPages: iws,
				FullKB:       fullKB,
				IncrKB:       incrKB,
				TotalKB:      fullKB + incrKB,
				BitExact:     out.BitExact(),
			})
		}
	}
	return rows, nil
}

// FormatCkptSet renders the A19 rows as a text table with per-kernel
// savings lines.
func FormatCkptSet(rows []CkptSetRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-5s %7s %8s %8s %8s %8s %8s %6s\n",
		"kernel", "mode", "regions", "excluded", "iws-pg", "fullKB", "incrKB", "totalKB", "exact")
	byKernel := make(map[string][2]float64)
	var order []string
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-5s %7d %8d %8.1f %8.1f %8.1f %8.1f %6s\n",
			r.Kernel, r.Mode, r.Regions, r.Excluded, r.MeanIWSPages,
			r.FullKB, r.IncrKB, r.TotalKB, yesNo(r.BitExact))
		v := byKernel[r.Kernel]
		if r.Mode == "whole" {
			order = append(order, r.Kernel)
			v[0] = r.TotalKB
		} else {
			v[1] = r.TotalKB
		}
		byKernel[r.Kernel] = v
	}
	b.WriteString("\nsavings (spec vs whole):")
	for _, k := range order {
		v := byKernel[k]
		if v[0] > 0 {
			fmt.Fprintf(&b, " %s=%.1f%%", k, 100*(v[0]-v[1])/v[0])
		}
	}
	b.WriteString("\n")
	return b.String()
}
