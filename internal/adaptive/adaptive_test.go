package adaptive

import (
	"testing"

	"repro/internal/des"
	"repro/internal/tracker"
)

// feedSquareWave drives the aligner with a synthetic bursty IWS signal:
// period 10 s, the first 6 s busy (100 MB/slice), the last 4 s quiet.
func feedSquareWave(eng *des.Engine, a *Aligner, seconds int) {
	for i := 0; i < seconds; i++ {
		i := i
		eng.Schedule(des.Time(i+1)*des.Second, func() {
			v := uint64(0)
			if i%10 < 6 {
				v = 100 << 20
			}
			a.Feed(tracker.Sample{
				Start:    des.Time(i) * des.Second,
				End:      des.Time(i+1) * des.Second,
				IWSBytes: v,
			})
		})
	}
}

func TestValidation(t *testing.T) {
	eng := des.NewEngine()
	if _, err := New(eng, Options{}, func() {}); err == nil {
		t.Fatal("zero interval accepted")
	}
	if _, err := New(eng, Options{Interval: des.Second}, nil); err == nil {
		t.Fatal("nil fire accepted")
	}
}

func TestFiresOnlyInQuietWindows(t *testing.T) {
	eng := des.NewEngine()
	var fires []des.Time
	a, err := New(eng, Options{Interval: 9 * des.Second}, func() {
		fires = append(fires, eng.Now())
	})
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	feedSquareWave(eng, a, 120)
	eng.Run(des.MaxTime)

	if len(fires) < 8 {
		t.Fatalf("fired %d times over 120s at 9s cadence", len(fires))
	}
	// Every trigger must land in a quiet second (t mod 10 in [7..10];
	// samples arrive at integer seconds covering [t-1,t), so a sample
	// ending at second e is quiet when (e-1)%10 >= 6).
	for _, at := range fires {
		e := int(at.Seconds())
		if (e-1)%10 < 6 {
			t.Fatalf("trigger at %v landed in a burst", at)
		}
	}
	st := a.Stats()
	if st.FiredQuiet != st.Fired || st.FiredForced != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if st.TotalDefer == 0 {
		t.Fatal("9s cadence against a 10s pattern must defer sometimes")
	}
}

func TestDeferralCapForcesFire(t *testing.T) {
	eng := des.NewEngine()
	var fires []des.Time
	a, _ := New(eng, Options{Interval: 4 * des.Second}, func() {
		fires = append(fires, eng.Now())
	})
	a.Start()
	// Never-quiet signal: constant heavy writing.
	for i := 0; i < 60; i++ {
		i := i
		eng.Schedule(des.Time(i+1)*des.Second, func() {
			a.Feed(tracker.Sample{IWSBytes: 50 << 20, End: des.Time(i+1) * des.Second})
		})
	}
	eng.Run(des.MaxTime)
	if len(fires) < 6 {
		t.Fatalf("cap did not keep cadence: %d fires", len(fires))
	}
	st := a.Stats()
	if st.FiredForced != st.Fired {
		t.Fatalf("never-quiet signal should force every fire: %+v", st)
	}
	// Effective cadence = interval + cap (one interval) = 8 s.
	for i := 1; i < len(fires); i++ {
		gap := fires[i] - fires[i-1]
		if gap < 5*des.Second || gap > 9*des.Second {
			t.Fatalf("gap %v outside [5s,9s]", gap)
		}
	}
}

func TestQuietSignalFiresOnCadence(t *testing.T) {
	eng := des.NewEngine()
	fires := 0
	a, _ := New(eng, Options{Interval: 4 * des.Second}, func() { fires++ })
	a.Start()
	for i := 0; i < 40; i++ {
		i := i
		eng.Schedule(des.Time(i+1)*des.Second, func() {
			a.Feed(tracker.Sample{IWSBytes: 0, End: des.Time(i+1) * des.Second})
		})
	}
	eng.Run(des.MaxTime)
	if fires < 9 || fires > 10 {
		t.Fatalf("quiet signal fired %d times over 40s at 4s cadence", fires)
	}
	if a.Stats().TotalDefer != 0 {
		t.Fatal("quiet signal should never defer")
	}
}

func TestNotStartedNeverFires(t *testing.T) {
	eng := des.NewEngine()
	a, _ := New(eng, Options{Interval: des.Second}, func() { t.Fatal("fired before Start") })
	for i := 0; i < 5; i++ {
		a.Feed(tracker.Sample{IWSBytes: 0, End: des.Time(i) * des.Second})
	}
	eng.Run(des.MaxTime)
}
