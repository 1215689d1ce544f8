package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/internal/des"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// Tests run at 8 ranks: the paper itself shows per-process behaviour is
// essentially independent of rank count (Fig 5), and the full 64-rank
// regeneration lives in the benchmark harness.
var testOpts = RunOpts{Ranks: 8, Seed: 7}

func within(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if want == 0 {
		return
	}
	if math.Abs(got-want)/want > tol {
		t.Errorf("%s: got %.2f, paper %.2f (>%.0f%% off)", name, got, want, tol*100)
	}
}

func TestRunOneBasics(t *testing.T) {
	r, err := RunOne(workload.SP(), testOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.IWS.Points) < 6 {
		t.Fatalf("too few samples: %d", len(r.IWS.Points))
	}
	if r.IterZero <= 0 {
		t.Fatal("IterZero missing")
	}
	// Aligned start: first sample begins at IterZero.
	if r.Samples[0].Start != r.IterZero {
		t.Fatalf("tracker not aligned: start %v vs iterZero %v", r.Samples[0].Start, r.IterZero)
	}
}

func TestRunOneIncludeInit(t *testing.T) {
	o := testOpts
	o.IncludeInit = true
	r, err := RunOne(workload.SP(), o)
	if err != nil {
		t.Fatal(err)
	}
	if r.Samples[0].Start != 0 {
		t.Fatal("IncludeInit must start tracking at t=0")
	}
	// The init burst must be visible: early slices write the whole
	// footprint at 400 MB/s.
	if r.IWS.Points[0].V < 30 {
		t.Fatalf("init burst missing: first slice %v MB", r.IWS.Points[0].V)
	}
}

func TestRunManyOrderAndErrors(t *testing.T) {
	specs := []workload.Spec{workload.LU(), workload.SP()}
	opts := []RunOpts{testOpts, testOpts}
	rs, err := RunMany(specs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Spec.Name != "LU" || rs[1].Spec.Name != "SP" {
		t.Fatal("RunMany order not preserved")
	}
	if _, err := RunMany(specs, opts[:1]); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
	bad := workload.LU()
	bad.Sweeps = 0
	if _, err := RunMany([]workload.Spec{bad}, []RunOpts{testOpts}); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

func TestTable2Bands(t *testing.T) {
	rows, err := Table2(testOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		within(t, r.App+" max footprint", r.MaxMB, r.PaperMax, 0.15)
		within(t, r.App+" avg footprint", r.AvgMB, r.PaperAvg, 0.15)
		if r.MaxMB < r.AvgMB*(1-1e-9) {
			t.Errorf("%s: max < avg", r.App)
		}
	}
	// Sage's dynamic allocator must oscillate; static apps must not.
	if rows[0].MaxMB-rows[0].AvgMB < 50 {
		t.Error("Sage-1000MB footprint did not oscillate")
	}
	if rows[6].MaxMB-rows[6].AvgMB > 2 { // LU static
		t.Error("LU footprint oscillated")
	}
	if !strings.Contains(FormatTable2(rows), "Sage-1000MB") {
		t.Error("FormatTable2 missing app")
	}
}

func TestTable4Bands(t *testing.T) {
	rows, err := Table4(testOpts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// At 8 ranks the period is ~12% shorter than the 64-rank
		// reference, so rates run slightly high; the bands absorb it.
		within(t, r.App+" avg IB", r.AvgMBs, r.PaperAvg, 0.30)
		within(t, r.App+" max IB", r.MaxMBs, r.PaperMax, 0.35)
		if r.MaxMBs < r.AvgMBs*(1-1e-9) {
			t.Errorf("%s: max < avg", r.App)
		}
		// Feasibility (§6.3): every application fits under both sinks.
		if r.AvgMBs >= 320 {
			t.Errorf("%s: avg IB %.1f exceeds disk bandwidth", r.App, r.AvgMBs)
		}
		if r.MaxMBs >= 900 {
			t.Errorf("%s: max IB %.1f exceeds network bandwidth", r.App, r.MaxMBs)
		}
	}
	// The headline feasibility claim: Sage-1000MB needs ~9% of the
	// network and ~25% of the disk.
	sage := rows[0]
	if sage.PctOfNetwork < 5 || sage.PctOfNetwork > 14 {
		t.Errorf("Sage %%network = %.1f, want ~9", sage.PctOfNetwork)
	}
	if sage.PctOfDisk < 15 || sage.PctOfDisk > 35 {
		t.Errorf("Sage %%disk = %.1f, want ~25", sage.PctOfDisk)
	}
	if !strings.Contains(FormatTable4(rows), "%") {
		t.Error("FormatTable4 missing feasibility columns")
	}
}

func TestTable3Bands(t *testing.T) {
	rows, err := Table3(testOpts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// Period detection: at 8 ranks periods are ~12% shorter than
		// the 64-rank paper reference.
		within(t, r.App+" period", r.PeriodS, r.PaperPeriod, 0.35)
		within(t, r.App+" overwrite%", r.OverwritePct, r.PaperPct, 0.40)
		if r.OverwritePct <= 0 || r.OverwritePct > 100 {
			t.Errorf("%s: overwrite %.1f%% out of range", r.App, r.OverwritePct)
		}
	}
	// Ordering claims from the paper: Sage has the longest iterations,
	// BT overwrites the most.
	byApp := map[string]Table3Row{}
	for _, r := range rows {
		byApp[r.App] = r
	}
	if byApp["Sage-1000MB"].PeriodS <= byApp["Sweep3D"].PeriodS {
		t.Error("Sage-1000MB iteration not the longest")
	}
	if byApp["BT"].OverwritePct <= byApp["Sage-1000MB"].OverwritePct {
		t.Error("BT must overwrite a larger fraction than Sage")
	}
	if !strings.Contains(FormatTable3(rows), "Period") {
		t.Error("FormatTable3 header missing")
	}
}

func TestFig1Shape(t *testing.T) {
	res, err := Fig1(testOpts)
	if err != nil {
		t.Fatal(err)
	}
	vals := res.IWS.Values()
	if len(vals) < 100 {
		t.Fatalf("Fig1 too short: %d samples", len(vals))
	}
	// Periodic write bursts at the (rank-scaled) iteration period.
	wantPeriod := workload.Sage1000MB().PeriodAt(8).Seconds()
	if math.Abs(res.DetectedPeriodS-wantPeriod) > 0.2*wantPeriod {
		t.Errorf("detected period %.1f, want ~%.1f", res.DetectedPeriodS, wantPeriod)
	}
	// Bursts separated by quiet windows: a meaningful fraction of
	// slices is near zero, and peaks are large.
	m := metrics.Summarize(res.IWS)
	if m.Max < 150 {
		t.Errorf("IWS peaks too small: %.1f MB", m.Max)
	}
	quiet := 0
	for _, v := range vals {
		if v < 0.05*m.Max {
			quiet++
		}
	}
	if float64(quiet)/float64(len(vals)) < 0.25 {
		t.Error("no quiet communication windows in the IWS trace")
	}
	// Panel (b): data received arrives in bursts between the write
	// bursts, a few MB per slice (Fig 1b's y-axis tops at 4 MB).
	rm := metrics.Summarize(res.Recv)
	if rm.Max <= 0.5 || rm.Max > 20 {
		t.Errorf("recv peaks %.2f MB out of plausible range", rm.Max)
	}
	if FormatSeries(res.IWS) == "" {
		t.Error("FormatSeries empty")
	}
}

var fig2TestTimeslices = []des.Time{des.Second, 4 * des.Second, 16 * des.Second}

func TestFig2Shape(t *testing.T) {
	res, err := Fig2(testOpts, fig2TestTimeslices)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 6 {
		t.Fatalf("panels = %d", len(res))
	}
	for _, p := range res {
		if len(p.Avg.Points) != 3 {
			t.Fatalf("%s: points = %d", p.App, len(p.Avg.Points))
		}
		// Bandwidth falls as the timeslice grows (§6.3) — strictly for
		// the ends, allowing small non-monotonic jitter in between.
		first, last := p.Avg.Points[0].Value, p.Avg.Points[2].Value
		if last >= first {
			t.Errorf("%s: avg IB did not fall with timeslice (%.1f → %.1f)", p.App, first, last)
		}
		for i, pt := range p.Avg.Points {
			if p.Max.Points[i].Value < pt.Value*(1-1e-9) {
				t.Errorf("%s: max < avg at ts=%v", p.App, pt.TimesliceS)
			}
		}
		// ts=1 anchors on Table 4.
		within(t, p.App+" fig2 avg@1s", p.Avg.Points[0].Value, p.PaperAvg1s, 0.30)
	}
}

func TestFig3And4Shape(t *testing.T) {
	res, err := Fig3(testOpts, fig2TestTimeslices)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.AvgIB) != 4 || len(res.Ratio) != 4 {
		t.Fatal("curve counts")
	}
	// Fig 3: larger footprints need more bandwidth at every timeslice…
	for i := 0; i+1 < len(res.AvgIB); i++ {
		for j := range res.AvgIB[i].Points {
			hi := res.AvgIB[i].Points[j].Value
			lo := res.AvgIB[i+1].Points[j].Value
			if hi <= lo {
				t.Errorf("IB ordering violated at ts=%v: %s %.1f <= %s %.1f",
					res.AvgIB[i].Points[j].TimesliceS, res.AvgIB[i].Name, hi, res.AvgIB[i+1].Name, lo)
			}
		}
	}
	// …but sublinearly: 1000MB needs less than 2x the 500MB bandwidth
	// (§6.4.1).
	at1s := func(c Curve) float64 { return c.Points[0].Value }
	if r := at1s(res.AvgIB[0]) / at1s(res.AvgIB[1]); r >= 2 {
		t.Errorf("IB grew superlinearly with footprint: ratio %.2f", r)
	}
	// Fig 4: the IWS/footprint ratio grows with the timeslice, and
	// smaller footprints have larger ratios.
	for _, c := range res.Ratio {
		if c.Points[len(c.Points)-1].Value <= c.Points[0].Value {
			t.Errorf("%s: ratio did not grow with timeslice", c.Name)
		}
		for _, p := range c.Points {
			if p.Value <= 0 || p.Value > 100 {
				t.Errorf("%s: ratio %.1f%% out of range", c.Name, p.Value)
			}
		}
	}
	if res.Ratio[3].Points[0].Value <= res.Ratio[0].Points[0].Value {
		t.Error("smaller Sage footprint must have larger IWS/footprint ratio")
	}
}

func TestFig5WeakScaling(t *testing.T) {
	o := RunOpts{Ranks: 0, Seed: 7} // Fig5 sets ranks itself
	res, err := Fig5(o, []des.Time{des.Second, 8 * des.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curves) != 4 {
		t.Fatalf("curves = %d", len(res.Curves))
	}
	// Per-process IB decreases slightly as ranks grow: curve "64" at or
	// below curve "8", but within ~20% (the paper's "no significant
	// influence").
	c64, c8 := res.Curves[0], res.Curves[3]
	for i := range c64.Points {
		v64, v8 := c64.Points[i].Value, c8.Points[i].Value
		if v64 > v8*1.02 {
			t.Errorf("ts=%v: IB at 64 ranks (%.1f) above 8 ranks (%.1f)", c64.Points[i].TimesliceS, v64, v8)
		}
		if v64 < v8*0.75 {
			t.Errorf("ts=%v: weak-scaling effect too large: %.1f vs %.1f", c64.Points[i].TimesliceS, v64, v8)
		}
	}
	if !strings.Contains(FormatCurves(res.Curves), "timeslice") {
		t.Error("FormatCurves header")
	}
}

func TestIntrusiveness(t *testing.T) {
	rows, err := Intrusiveness(testOpts, []des.Time{des.Second, 5 * des.Second, 20 * des.Second})
	if err != nil {
		t.Fatal(err)
	}
	// §6.5: slowdown below 10% at a 1 s timeslice.
	if rows[0].Slowdown >= 0.10 {
		t.Errorf("slowdown at 1s = %.1f%%, paper reports <10%%", rows[0].Slowdown*100)
	}
	if rows[0].Slowdown <= 0.005 {
		t.Errorf("slowdown at 1s = %.2f%% implausibly small", rows[0].Slowdown*100)
	}
	// Longer timeslices reduce the overhead (page reuse).
	if !(rows[0].Slowdown > rows[1].Slowdown && rows[1].Slowdown > rows[2].Slowdown) {
		t.Errorf("slowdown not decreasing: %+v", rows)
	}
	if rows[0].Faults == 0 {
		t.Error("no faults recorded")
	}
}

func TestAblationAlignment(t *testing.T) {
	res, err := AblationAlignment(RunOpts{Ranks: 4, Seed: 7, Periods: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Checkpointing mid-burst forces far more copy-on-write traffic
	// than checkpointing in the quiet communication window (§6.2).
	if res.MidBurstCowMB < 3*res.AlignedCowMB {
		t.Errorf("CoW mid-burst %.1f MB not >> aligned %.1f MB", res.MidBurstCowMB, res.AlignedCowMB)
	}
	if res.MidBurstVolumeMB <= 0 || res.AlignedVolumeMB <= 0 {
		t.Error("zero checkpoint volume")
	}
}

func TestAblationIncremental(t *testing.T) {
	res, err := AblationIncremental(RunOpts{Ranks: 4, Seed: 7, Periods: 2}, 10*des.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Checkpoints < 5 {
		t.Fatalf("checkpoints = %d", res.Checkpoints)
	}
	// Incremental checkpoints at a 10 s interval must move much less
	// data than full ones (that is the paper's whole premise).
	if res.Ratio >= 0.6 {
		t.Errorf("incremental/full ratio = %.2f, want < 0.6", res.Ratio)
	}
	if res.Ratio <= 0 {
		t.Error("ratio not computed")
	}
	// Sage unmaps its transient arena: memory exclusion must save data.
	if res.ExcludedMB <= 0 {
		t.Error("memory exclusion saved nothing for Sage")
	}
}

func TestEfficiency(t *testing.T) {
	res, err := Efficiency(RunOpts{Ranks: 4, Seed: 7, Periods: 2}, des.FromSeconds(3600))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Efficiency is high (>90%) at the optimum and worse at the sweep
	// extremes (too-frequent and too-rare checkpointing).
	if res.BestEff < 0.9 {
		t.Errorf("best efficiency %.2f too low", res.BestEff)
	}
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	if first.AnalyticEff >= res.BestEff && last.AnalyticEff >= res.BestEff {
		t.Error("efficiency not peaked inside the sweep")
	}
	// Simulation tracks the analytic model.
	for _, r := range res.Rows {
		if math.Abs(r.SimEff-r.AnalyticEff) > 0.10 {
			t.Errorf("interval %.0fs: sim %.2f vs analytic %.2f", r.IntervalS, r.SimEff, r.AnalyticEff)
		}
	}
	// The closed-form optimum lands inside the sweep range.
	if res.DalyS < first.IntervalS || res.DalyS > last.IntervalS {
		t.Errorf("Daly optimum %.0fs outside sweep", res.DalyS)
	}
	// Incremental checkpointing beats full checkpointing at system level.
	if res.FullCkptEff >= res.BestEff {
		t.Errorf("full-checkpoint efficiency %.3f not below incremental %.3f", res.FullCkptEff, res.BestEff)
	}
}
