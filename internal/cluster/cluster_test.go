package cluster

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/des"
)

func hours(h float64) des.Time { return des.FromSeconds(h * 3600) }

func TestSystemMTBF(t *testing.T) {
	fm := FailureModel{NodeMTBF: hours(65536), Nodes: 65536}
	// BlueGene/L-scale: 64k nodes at 64k-hour node MTBF → 1-hour system
	// MTBF ("failures every few hours", §1).
	if got := fm.SystemMTBF(); got != hours(1) {
		t.Fatalf("SystemMTBF = %v", got)
	}
	if (FailureModel{}).SystemMTBF() != 0 {
		t.Fatal("zero model MTBF")
	}
}

func TestSampleDistribution(t *testing.T) {
	fm := FailureModel{NodeMTBF: hours(100), Nodes: 100}
	rng := rand.New(rand.NewPCG(1, 2))
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += fm.Sample(rng).Seconds()
	}
	mean := sum / n
	want := 3600.0
	if math.Abs(mean-want)/want > 0.05 {
		t.Fatalf("sample mean = %.0f s, want ~%v", mean, want)
	}
	// Degenerate model never fails.
	if (FailureModel{}).Sample(rng) != des.MaxTime {
		t.Fatal("degenerate sample")
	}
}

func TestJobValidate(t *testing.T) {
	good := Job{Work: hours(10), Interval: hours(1), CkptCost: des.Second}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bads := []Job{
		{Interval: hours(1)},
		{Work: hours(1)},
		{Work: hours(1), Interval: hours(1), CkptCost: -1},
	}
	for i, j := range bads {
		if j.Validate() == nil {
			t.Errorf("bad job %d accepted", i)
		}
	}
}

func TestSimulateNoFailures(t *testing.T) {
	job := Job{Work: hours(10), Interval: hours(1), CkptCost: 60 * des.Second, RestartCost: hours(1)}
	fm := FailureModel{} // never fails
	st, err := Simulate(job, fm, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Failures != 0 || st.LostWork != 0 {
		t.Fatalf("stats: %+v", st)
	}
	// 10 segments, 9 checkpoints (none after the last).
	if st.Checkpoints != 9 {
		t.Fatalf("checkpoints = %d, want 9", st.Checkpoints)
	}
	want := hours(10) + 9*60*des.Second
	if st.Elapsed != want {
		t.Fatalf("elapsed = %v, want %v", st.Elapsed, want)
	}
	if math.Abs(st.Efficiency-hours(10).Seconds()/want.Seconds()) > 1e-9 {
		t.Fatalf("efficiency = %v", st.Efficiency)
	}
}

func TestSimulateWithFailures(t *testing.T) {
	job := Job{Work: hours(100), Interval: hours(1), CkptCost: 30 * des.Second, RestartCost: 5 * 60 * des.Second}
	fm := FailureModel{NodeMTBF: hours(10000), Nodes: 1000} // MTBF 10h
	st, err := Simulate(job, fm, 42)
	if err != nil {
		t.Fatal(err)
	}
	if st.Failures == 0 {
		t.Fatal("expected failures over 100h at 10h MTBF")
	}
	if st.Elapsed <= hours(100) {
		t.Fatal("elapsed must exceed pure work time")
	}
	if st.Efficiency <= 0 || st.Efficiency >= 1 {
		t.Fatalf("efficiency = %v", st.Efficiency)
	}
	// Lost work per failure is bounded by one interval.
	if st.LostWork > des.Time(st.Failures)*job.Interval {
		t.Fatalf("lost work %v exceeds failures x interval", st.LostWork)
	}
}

func TestSimulateMean(t *testing.T) {
	job := Job{Work: hours(20), Interval: hours(1), CkptCost: 30 * des.Second, RestartCost: 60 * des.Second}
	fm := FailureModel{NodeMTBF: hours(1000), Nodes: 200} // MTBF 5h
	st, err := SimulateMean(job, fm, 20, 7)
	if err != nil {
		t.Fatal(err)
	}
	if st.Efficiency <= 0.5 || st.Efficiency >= 1 {
		t.Fatalf("mean efficiency = %v", st.Efficiency)
	}
	if _, err := SimulateMean(job, fm, 0, 7); err == nil {
		t.Fatal("zero trials accepted")
	}
}

func TestYoungAndDaly(t *testing.T) {
	c, m := 60*des.Second, hours(1)
	young := YoungInterval(c, m)
	want := math.Sqrt(2 * 60 * 3600)
	if math.Abs(young.Seconds()-want) > 1 {
		t.Fatalf("Young = %v, want %.0fs", young, want)
	}
	daly := DalyInterval(c, m)
	// Daly's correction is small for C << M and near Young's value.
	if math.Abs(daly.Seconds()-young.Seconds()) > 0.15*young.Seconds() {
		t.Fatalf("Daly %v too far from Young %v", daly, young)
	}
	if DalyInterval(0, m) != 0 || DalyInterval(c, 0) != 0 {
		t.Fatal("degenerate Daly")
	}
}

func TestAnalyticEfficiencyShape(t *testing.T) {
	c, r, m := 60*des.Second, 120*des.Second, hours(1)
	// Efficiency must peak near the Young/Daly interval and fall off on
	// both sides.
	opt := DalyInterval(c, m)
	effOpt := AnalyticEfficiency(opt, c, r, m)
	effSmall := AnalyticEfficiency(opt/10, c, r, m)
	effBig := AnalyticEfficiency(opt*10, c, r, m)
	if effOpt <= effSmall || effOpt <= effBig {
		t.Fatalf("efficiency not peaked: %.3f %.3f %.3f", effSmall, effOpt, effBig)
	}
	if AnalyticEfficiency(0, c, r, m) != 0 {
		t.Fatal("zero tau efficiency")
	}
}

// Property: the brute-force optimum of the analytic model lands within
// 25% of Daly's closed form across a range of cost/MTBF ratios.
func TestPropertyDalyMatchesBruteForce(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 61))
		c := des.FromSeconds(float64(rng.IntN(300) + 10))     // 10-310 s
		m := des.FromSeconds(float64(rng.IntN(20000) + 1800)) // 0.5-6 h
		daly := DalyInterval(c, m)
		brute := OptimalIntervalBruteForce(c, 0, m, c/2, m*4, 4000)
		d, b := daly.Seconds(), brute.Seconds()
		return math.Abs(d-b) <= 0.25*b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: simulated efficiency tracks analytic efficiency within 10
// points for moderate failure rates.
func TestPropertySimulationMatchesAnalytic(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 71))
		m := hours(float64(rng.IntN(8) + 2))
		c := des.FromSeconds(float64(rng.IntN(120) + 30))
		tau := YoungInterval(c, m)
		job := Job{Work: hours(200), Interval: tau, CkptCost: c, RestartCost: c}
		st, err := SimulateMean(job, FailureModel{NodeMTBF: m * 64, Nodes: 64}, 12, seed)
		if err != nil {
			return false
		}
		analytic := AnalyticEfficiency(tau, c, c, m)
		return math.Abs(st.Efficiency-analytic) < 0.10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestOptimalIntervalBruteForceDegenerate(t *testing.T) {
	if OptimalIntervalBruteForce(des.Second, 0, hours(1), 0, hours(1), 100) != 0 {
		t.Fatal("lo=0 accepted")
	}
	if OptimalIntervalBruteForce(des.Second, 0, hours(1), des.Second, des.Second, 100) != 0 {
		t.Fatal("hi<=lo accepted")
	}
	if OptimalIntervalBruteForce(des.Second, 0, hours(1), des.Second, hours(1), 1) != 0 {
		t.Fatal("steps<2 accepted")
	}
}

func BenchmarkSimulate(b *testing.B) {
	job := Job{Work: hours(100), Interval: hours(1), CkptCost: 30 * des.Second, RestartCost: 60 * des.Second}
	fm := FailureModel{NodeMTBF: hours(5000), Nodes: 1000}
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(job, fm, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
