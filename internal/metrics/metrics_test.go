package metrics

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestSeriesBasics(t *testing.T) {
	var s Series
	s.Name = "iws"
	for i := 0; i < 5; i++ {
		s.Add(float64(i), float64(i*10))
	}
	if len(s.Points) != 5 {
		t.Fatalf("Len = %d", len(s.Points))
	}
	v := s.Values()
	if len(v) != 5 || v[3] != 30 {
		t.Fatalf("Values = %v", v)
	}
	after := s.After(2.5)
	if len(after.Points) != 2 || after.Points[0].T != 3 {
		t.Fatalf("After(2.5) = %+v", after.Points)
	}
	if got := s.After(100); len(got.Points) != 0 {
		t.Fatalf("After(100) kept %d points", len(got.Points))
	}
}

func TestSummarize(t *testing.T) {
	var s Series
	for _, v := range []float64{3, 1, 4, 1, 5} {
		s.Add(0, v)
	}
	m := Summarize(&s)
	if m.N != 5 || m.Min != 1 || m.Max != 5 || m.Sum != 14 {
		t.Fatalf("Summary = %+v", m)
	}
	if math.Abs(m.Mean-2.8) > 1e-12 {
		t.Fatalf("Mean = %v", m.Mean)
	}
	if Summarize(nil).N != 0 || Summarize(&Series{}).N != 0 {
		t.Fatal("empty summaries not zero")
	}
	if m.String() == "" {
		t.Fatal("empty String()")
	}
}

func sine(n int, period float64, noise float64, rng *rand.Rand) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 10 + 5*math.Sin(2*math.Pi*float64(i)/period)
		if noise > 0 {
			out[i] += noise * (rng.Float64() - 0.5)
		}
	}
	return out
}

func TestDetectPeriodSine(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	for _, period := range []float64{10, 25, 60} {
		got := DetectPeriod(sine(500, period, 0.5, rng), 1.0)
		if math.Abs(got-period) > period*0.15 {
			t.Errorf("period %.0f: detected %.1f", period, got)
		}
	}
}

func TestDetectPeriodPulseTrain(t *testing.T) {
	// Bursty signal like Fig 1a: tall pulses every 29 samples.
	n := 300
	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		if i%29 < 8 {
			vals[i] = 300
		}
	}
	got := DetectPeriod(vals, 1.0)
	if math.Abs(got-29) > 3 {
		t.Fatalf("pulse train: detected %.1f, want 29", got)
	}
}

func TestDetectPeriodHarmonicFolding(t *testing.T) {
	// A pure pulse train can correlate strongly at 2x the fundamental.
	n := 400
	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		if i%20 < 4 {
			vals[i] = 100
		}
	}
	got := DetectPeriod(vals, 0.5)
	if math.Abs(got-10.0) > 1.5 { // 20 samples * 0.5 dt
		t.Fatalf("detected %.2f, want 10.0", got)
	}
}

func TestDetectPeriodDegenerate(t *testing.T) {
	if DetectPeriod(nil, 1) != 0 {
		t.Fatal("nil input")
	}
	if DetectPeriod([]float64{1, 2, 3}, 1) != 0 {
		t.Fatal("too-short input")
	}
	if DetectPeriod(make([]float64, 100), 1) != 0 {
		t.Fatal("constant (zero) input")
	}
	flat := make([]float64, 100)
	for i := range flat {
		flat[i] = 42
	}
	if DetectPeriod(flat, 1) != 0 {
		t.Fatal("constant input")
	}
	rng := rand.New(rand.NewPCG(2, 2))
	noise := make([]float64, 200)
	for i := range noise {
		noise[i] = rng.Float64()
	}
	// White noise should usually not report a period; tolerate rare
	// spurious weak peaks by only requiring no *short* strong period.
	if p := DetectPeriod(noise, 1); p != 0 && p < 4 {
		t.Fatalf("white noise produced period %v", p)
	}
	if DetectPeriod(sine(100, 10, 0, rng), 0) != 0 {
		t.Fatal("dt=0 must return 0")
	}
}

func TestFindBursts(t *testing.T) {
	vals := []float64{0, 0, 10, 12, 11, 0, 0, 0, 9, 10, 0, 0}
	bursts := FindBursts(vals, 0.5, 2)
	if len(bursts) != 2 {
		t.Fatalf("bursts = %+v", bursts)
	}
	if bursts[0].Start != 2 || bursts[0].End != 5 || bursts[0].Peak != 12 {
		t.Fatalf("burst[0] = %+v", bursts[0])
	}
	if bursts[1].Start != 8 || bursts[1].Duration() != 2 {
		t.Fatalf("burst[1] = %+v", bursts[1])
	}
	if bursts[0].Sum != 33 {
		t.Fatalf("burst[0].Sum = %v", bursts[0].Sum)
	}
}

func TestFindBurstsMergeGap(t *testing.T) {
	// Two sub-bursts separated by a 1-sample dip merge with minGap=3.
	vals := []float64{0, 10, 10, 0, 10, 10, 0, 0, 0, 0}
	bursts := FindBursts(vals, 0.5, 3)
	if len(bursts) != 1 {
		t.Fatalf("expected merged burst, got %+v", bursts)
	}
	if bursts[0].Start != 1 || bursts[0].End != 6 {
		t.Fatalf("merged burst = %+v", bursts[0])
	}
}

func TestFindBurstsTrailing(t *testing.T) {
	vals := []float64{0, 0, 5, 6, 7}
	bursts := FindBursts(vals, 0.5, 2)
	if len(bursts) != 1 || bursts[0].End != 5 {
		t.Fatalf("trailing burst = %+v", bursts)
	}
}

func TestFindBurstsEmpty(t *testing.T) {
	if FindBursts(nil, 0.5, 2) != nil {
		t.Fatal("nil input")
	}
	if FindBursts([]float64{0, 0, 0}, 0.5, 2) != nil {
		t.Fatal("all-zero input")
	}
}

// Property: Summarize bounds — Min <= Mean <= Max, Sum == Mean*N.
func TestPropertySummaryBounds(t *testing.T) {
	f := func(vals []float64) bool {
		finite := vals[:0]
		for _, v := range vals {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e12 {
				finite = append(finite, v)
			}
		}
		if len(finite) == 0 {
			return true
		}
		var s Series
		for _, v := range finite {
			s.Add(0, v)
		}
		m := Summarize(&s)
		if m.Min > m.Mean+1e-9 || m.Mean > m.Max+1e-9 {
			return false
		}
		return math.Abs(m.Sum-m.Mean*float64(m.N)) < 1e-6*(1+math.Abs(m.Sum))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: DetectPeriod recovers the period of random noisy sinusoids
// within 20%.
func TestPropertyDetectPeriodSine(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 3))
		period := float64(rng.IntN(40) + 8)
		vals := sine(12*int(period), period, 1.0, rng)
		got := DetectPeriod(vals, 1.0)
		return math.Abs(got-period) <= 0.2*period
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: every burst's samples exceed the threshold at its edges, and
// bursts are ordered and disjoint.
func TestPropertyBurstInvariants(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 4))
		vals := make([]float64, int(n)+10)
		for i := range vals {
			if rng.IntN(3) == 0 {
				vals[i] = rng.Float64() * 100
			}
		}
		bursts := FindBursts(vals, 0.5, 1)
		prevEnd := -1
		for _, b := range bursts {
			if b.Start <= prevEnd || b.End <= b.Start || b.End > len(vals) {
				return false
			}
			prevEnd = b.End
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDetectPeriod(b *testing.B) {
	rng := rand.New(rand.NewPCG(5, 5))
	vals := sine(1000, 145, 2, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DetectPeriod(vals, 1.0)
	}
}

func TestDetectPeriodMin(t *testing.T) {
	// Signal with a strong 3-sample aliasing component and a true
	// 24-sample envelope.
	n := 480
	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		env := 0.0
		if i%24 < 16 {
			env = 100
		}
		spike := 0.0
		if i%3 == 0 {
			spike = 60
		}
		vals[i] = env + spike
	}
	// Unconstrained detection may lock onto the 3-sample component.
	if p := DetectPeriod(vals, 1.0); p > 20 {
		t.Logf("unconstrained detection already found the envelope: %v", p)
	}
	got := DetectPeriodMin(vals, 1.0, 8)
	if math.Abs(got-24) > 3 {
		t.Fatalf("DetectPeriodMin = %v, want ~24", got)
	}
	// minPeriod longer than any real periodicity: nothing to report
	// above the threshold at those lags... the envelope repeats at 24,
	// 48, ...; minPeriod 30 should find 48.
	if p := DetectPeriodMin(vals, 1.0, 30); math.Abs(p-48) > 5 {
		t.Fatalf("harmonic above floor = %v, want ~48", p)
	}
}
