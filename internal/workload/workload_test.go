package workload

import (
	"math"
	"testing"

	"repro/internal/des"
	"repro/internal/metrics"
	"repro/internal/tracker"
)

func TestAllSpecsValidate(t *testing.T) {
	specs := All()
	if len(specs) != 9 {
		t.Fatalf("All() = %d specs, want 9 (Table 2)", len(specs))
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
		if seen[s.Name] {
			t.Errorf("duplicate spec %s", s.Name)
		}
		seen[s.Name] = true
	}
}

func TestByName(t *testing.T) {
	s, err := ByName("Sweep3D")
	if err != nil || s.Name != "Sweep3D" {
		t.Fatalf("ByName: %v %v", s.Name, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestValidateRejections(t *testing.T) {
	base := SP()
	cases := []func(*Spec){
		func(s *Spec) { s.Name = "" },
		func(s *Spec) { s.Paper.AvgFootprintMB = 0 },
		func(s *Spec) { s.Paper.MaxFootprintMB = s.Paper.AvgFootprintMB - 1 },
		func(s *Spec) { s.Paper.PeriodS = 0 },
		func(s *Spec) { s.WorkingSetMB = 0 },
		func(s *Spec) { s.WorkingSetMB = s.Paper.MaxFootprintMB + 1 },
		func(s *Spec) { s.Sweeps = 0 },
		func(s *Spec) { s.BurstFrac = 1.5 },
		func(s *Spec) { s.RateProfile = nil },
		func(s *Spec) { s.RefRanks = 0 },
		func(s *Spec) { s.CommStripMB = 0 },
	}
	for i, mut := range cases {
		s := base
		mut(&s)
		if s.Validate() == nil {
			t.Errorf("case %d: invalid spec accepted", i)
		}
	}
}

func TestPeriodScaling(t *testing.T) {
	s := Sage1000MB()
	ref := s.PeriodAt(64)
	if ref != des.FromSeconds(145) {
		t.Fatalf("PeriodAt(64) = %v", ref)
	}
	// Fewer ranks → shorter period (less communication).
	if p8 := s.PeriodAt(8); p8 >= ref {
		t.Fatalf("PeriodAt(8) = %v, want < %v", p8, ref)
	}
	if p128 := s.PeriodAt(128); p128 <= ref {
		t.Fatalf("PeriodAt(128) = %v, want > %v", p128, ref)
	}
	noScale := s
	noScale.ScaleAlpha = 0
	if noScale.PeriodAt(8) != ref {
		t.Fatal("ScaleAlpha=0 must not scale")
	}
}

func TestDerivedQuantities(t *testing.T) {
	s := Sage1000MB()
	// Transient/persistent split reproduces Table 2's avg and max.
	d := s.TransientMB()
	p := s.PersistentMB()
	if math.Abs(p+d-s.Paper.MaxFootprintMB) > 0.1 {
		t.Fatalf("persistent+transient = %v, want max %v", p+d, s.Paper.MaxFootprintMB)
	}
	avg := p + s.BurstFrac*d
	if math.Abs(avg-s.Paper.AvgFootprintMB) > 0.1 {
		t.Fatalf("modelled avg footprint = %v, want %v", avg, s.Paper.AvgFootprintMB)
	}
	if SP().TransientMB() != 0 {
		t.Fatal("static app has a transient arena")
	}
	// Sweep rate: S*W/B.
	rate := s.SweepRateBps(64)
	wantRate := s.Sweeps * s.WorkingSetMB * MB / (145 * s.BurstFrac)
	if math.Abs(rate-wantRate)/wantRate > 0.01 {
		t.Fatalf("SweepRateBps = %v, want %v", rate, wantRate)
	}
}

// tiny returns a small fast spec for unit tests.
func tiny() Spec {
	return Spec{
		Name:         "tiny",
		Paper:        Paper{MaxFootprintMB: 8, AvgFootprintMB: 8, PeriodS: 1, OverwritePct: 50},
		WorkingSetMB: 4, Sweeps: 2, BurstFrac: 0.5,
		RateProfile: []float64{1},
		CommMB:      0.25, CommStripMB: 0.25, CommMsgKB: 64, CommClumps: 1,
		RefRanks: 4, InitRateMBs: 100, StaticMB: 1,
	}
}

func TestRunnerLifecycle(t *testing.T) {
	r, err := New(tiny(), Config{Ranks: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.World.Size() != 4 {
		t.Fatalf("world size = %d", r.World.Size())
	}
	r.Run(r.durationFor(3))
	if r.iterations() < 3 {
		t.Fatalf("iterations = %d, want >= 3", r.iterations())
	}
	if r.IterZero() <= 0 {
		t.Fatal("IterZero not recorded")
	}
	// Init takes about footprint/rate = 8MB/100MBs = 80ms.
	if got := r.IterZero().Seconds(); got < 0.05 || got > 0.5 {
		t.Fatalf("IterZero = %v s", got)
	}
	// Footprint matches the spec (static apps stay constant).
	wantFp := uint64(8 * MB)
	fp := r.Space(0).Footprint()
	// Page rounding and the MPI bounce buffer add a little.
	if fp < wantFp || fp > wantFp+(2<<20)+4*r.Space(0).PageSize() {
		t.Fatalf("footprint = %d, want ~%d", fp, wantFp)
	}
}

func TestRunnerDeterminism(t *testing.T) {
	run := func() (uint64, uint64) {
		r, err := New(tiny(), Config{Ranks: 4, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		r.Run(r.durationFor(2))
		return r.Space(0).WrittenBytes(), r.Eng.Fired()
	}
	w1, f1 := run()
	w2, f2 := run()
	if w1 != w2 || f1 != f2 {
		t.Fatalf("non-deterministic: (%d,%d) vs (%d,%d)", w1, f1, w2, f2)
	}
}

func TestRunnerInvalidSpec(t *testing.T) {
	s := tiny()
	s.Sweeps = 0
	if _, err := New(s, Config{}); err == nil {
		t.Fatal("invalid spec accepted")
	}
	// Working set too large for the persistent arena.
	s = tiny()
	s.WorkingSetMB = 7.9
	if _, err := New(s, Config{Ranks: 2}); err == nil {
		t.Fatal("oversized working set accepted")
	}
}

// trackedRun runs spec for the given iterations with a tracker on rank 0
// and returns the post-initialization IWS series in MB.
func trackedRun(t *testing.T, spec Spec, ranks int, ts des.Time, iters int) (*metrics.Series, *Runner, *tracker.Tracker) {
	t.Helper()
	r, err := New(spec, Config{Ranks: ranks, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tracker.New(r.Eng, r.Space(0), tracker.Options{Timeslice: ts})
	if err != nil {
		t.Fatal(err)
	}
	tr.AttachRank(r.World, 0)
	tr.Start()
	r.Run(r.durationFor(iters))
	return tr.IWSSeries().After(r.IterZero().Seconds() + ts.Seconds()), r, tr
}

func TestTrackedTinyIWS(t *testing.T) {
	spec := tiny()
	// Timeslice = period: every slice sees exactly one iteration's
	// working set (plus the comm strip and reduction page).
	iws, _, _ := trackedRun(t, spec, 4, des.Second, 6)
	if len(iws.Points) < 4 {
		t.Fatalf("too few samples: %d", len(iws.Points))
	}
	m := metrics.Summarize(iws)
	// Working set 4 MB + strip 0.25 MB; allow page rounding slack.
	if m.Mean < 3.5 || m.Mean > 5.5 {
		t.Fatalf("mean IWS = %.2f MB, want ~4.25", m.Mean)
	}
}

func TestIWSDropsWithTimeslice(t *testing.T) {
	spec := tiny()
	ib1, _, _ := trackedRun(t, spec, 2, des.Second, 8)
	ib4, _, _ := trackedRun(t, spec, 2, 4*des.Second, 8)
	m1 := metrics.Summarize(ib1).Mean / 1.0 // MB per 1s slice
	m4 := metrics.Summarize(ib4).Mean / 4.0 // MB/s at 4s slices
	if m4 >= m1 {
		t.Fatalf("IB did not drop with timeslice: %v at 1s vs %v at 4s", m1, m4)
	}
}

func TestDynamicFootprintOscillates(t *testing.T) {
	spec := tiny()
	spec.Name = "tiny-dyn"
	spec.Dynamic = true
	spec.Paper.MaxFootprintMB = 16 // 8 MB transient at BurstFrac 0.5 → 12 avg
	spec.Paper.AvgFootprintMB = 12
	r, err := New(spec, Config{Ranks: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := tracker.New(r.Eng, r.Space(0), tracker.Options{Timeslice: 250 * des.Millisecond})
	tr.AttachRank(r.World, 0)
	tr.Start()
	r.Run(r.durationFor(4))
	fp := tr.FootprintSeries().After(r.IterZero().Seconds())
	m := metrics.Summarize(fp)
	if m.Max <= m.Min {
		t.Fatalf("dynamic footprint did not oscillate: %+v", m)
	}
	// Max should approach persistent+transient = 16 MB (plus bounce).
	if m.Max < 14 || m.Max > 19 {
		t.Fatalf("max footprint = %.1f MB, want ~16-17", m.Max)
	}
	// Transient pages written then unmapped must show up as exclusions.
	var excluded uint64
	for _, s := range tr.Samples() {
		excluded += s.ExcludedBytes
	}
	if excluded == 0 {
		t.Fatal("no memory exclusion observed for dynamic app")
	}
}

func TestCommDataReceived(t *testing.T) {
	spec := tiny()
	_, r, tr := trackedRun(t, spec, 4, 500*des.Millisecond, 6)
	recv := tr.RecvSeries().After(r.IterZero().Seconds())
	m := metrics.Summarize(recv)
	if m.Sum <= 0 {
		t.Fatal("no data received recorded")
	}
	// ~0.25 MB per iteration (plus allreduce payloads).
	perIter := m.Sum / float64(r.iterations())
	if perIter < 0.1 || perIter > 1.0 {
		t.Fatalf("received %.3f MB per iteration, want ~0.25", perIter)
	}
}

func TestAltShiftIncreasesCrossIterationUnion(t *testing.T) {
	base := tiny()
	base.Paper.MaxFootprintMB = 16
	base.Paper.AvgFootprintMB = 16
	shifted := base
	shifted.Name = "tiny-shift"
	shifted.AltShiftMB = 2

	union := func(spec Spec) float64 {
		// Timeslice of 2 periods captures two consecutive iterations.
		iws, _, _ := trackedRun(t, spec, 2, 2*des.Second, 8)
		return metrics.Summarize(iws).Mean
	}
	u0 := union(base)
	u1 := union(shifted)
	if u1 <= u0+1.5 {
		t.Fatalf("AltShift union %.2f MB not > base %.2f + shift", u1, u0)
	}
}

func TestWeakScalingPeriodStretch(t *testing.T) {
	spec := tiny()
	spec.ScaleAlpha = 0.05
	spec.RefRanks = 2
	r2, _ := New(spec, Config{Ranks: 2, Seed: 1})
	r2.Run(r2.durationFor(4))
	r8, _ := New(spec, Config{Ranks: 8, Seed: 1})
	r8.Run(r8.durationFor(4))
	// Same virtual budget per iteration; more ranks → longer period →
	// same iteration count but measured over a longer wall time is
	// covered by DurationFor. Just verify both progressed and that the
	// configured period differs.
	if r2.iterations() < 4 || r8.iterations() < 4 {
		t.Fatalf("iterations: %d, %d", r2.iterations(), r8.iterations())
	}
	if spec.PeriodAt(8) <= spec.PeriodAt(2) {
		t.Fatal("period did not stretch with ranks")
	}
}

func TestNormalize(t *testing.T) {
	out := normalize([]float64{2, 4, 6})
	var sum float64
	for _, v := range out {
		sum += v
	}
	if math.Abs(sum/3-1) > 1e-12 {
		t.Fatalf("normalize mean = %v", sum/3)
	}
	if math.Abs(out[0]/out[2]-2.0/6.0) > 1e-12 {
		t.Fatal("normalize changed ratios")
	}
}

func BenchmarkTinyIteration(b *testing.B) {
	spec := tiny()
	r, err := New(spec, Config{Ranks: 4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	r.Run(r.initEstimate() + des.Second)
	period := spec.PeriodAt(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Run(r.Eng.Now() + period)
	}
}

func TestDwellBendsCurveImmediately(t *testing.T) {
	// With a dwell window, IB drops from ts=1 to ts=2 even while the
	// fresh sweep is far from wrapping; without it the curve is flat
	// until the sweep wraps.
	base := tiny()
	base.Paper.MaxFootprintMB = 64
	base.Paper.AvgFootprintMB = 64
	base.Paper.PeriodS = 8
	base.WorkingSetMB = 40
	base.Sweeps = 2
	base.BurstFrac = 0.8

	withDwell := base
	withDwell.Name = "tiny-dwell"
	withDwell.Sweeps = 1
	withDwell.DwellMB = 6.25 // half the 12.5 MB/s mean rate

	avgIB := func(spec Spec, ts des.Time) float64 {
		ib, _, _ := trackedRun(t, spec, 2, ts, 4)
		return metrics.Summarize(ib).Mean / ts.Seconds() * 1.0
	}
	// Without dwell: flat between 1s and 2s (sweep rate 12.5 MB/s,
	// working set 40 MB: no wrap inside 2s).
	flat1 := avgIB(base, des.Second)
	flat2 := avgIB(base, 2*des.Second)
	if flat2 < flat1*0.93 {
		t.Fatalf("no-dwell curve not flat: %.2f → %.2f", flat1, flat2)
	}
	// With dwell at equal ts=1 calibration: clear drop by ts=2.
	d1 := avgIB(withDwell, des.Second)
	d2 := avgIB(withDwell, 2*des.Second)
	if d2 > d1*0.88 {
		t.Fatalf("dwell curve did not bend: %.2f → %.2f", d1, d2)
	}
	// Calibration: both specs measure similar IB at ts=1.
	if math.Abs(d1-flat1)/flat1 > 0.25 {
		t.Fatalf("dwell calibration off at 1s: %.2f vs %.2f", d1, flat1)
	}
}

// Property: the IWS of any slice never exceeds the mapped footprint at
// the alarm, for any app and timeslice.
func TestPropertyIWSBoundedByFootprint(t *testing.T) {
	for _, spec := range []Spec{SP(), Sweep3D(), Sage50MB()} {
		for _, ts := range []des.Time{des.Second, 3 * des.Second} {
			r, err := New(spec, Config{Ranks: 2, Seed: 9})
			if err != nil {
				t.Fatal(err)
			}
			tr, _ := tracker.New(r.Eng, r.Space(0), tracker.Options{Timeslice: ts})
			tr.AttachRank(r.World, 0)
			tr.Start()
			r.Run(r.durationFor(3))
			for i, s := range tr.Samples() {
				if s.IWSBytes > s.FootprintBytes {
					t.Fatalf("%s ts=%v slice %d: IWS %d > footprint %d",
						spec.Name, ts, i, s.IWSBytes, s.FootprintBytes)
				}
			}
		}
	}
}
