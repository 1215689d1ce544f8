package des

import (
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	if got := FromSeconds(1.5); got != 1500*Millisecond {
		t.Fatalf("FromSeconds(1.5) = %d, want %d", got, 1500*Millisecond)
	}
	if got := (2 * Second).Seconds(); got != 2.0 {
		t.Fatalf("Seconds() = %v, want 2.0", got)
	}
	if got := (1500 * Millisecond).String(); got != "1.500s" {
		t.Fatalf("String() = %q", got)
	}
}

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(3*Second, func() { got = append(got, 3) })
	e.Schedule(1*Second, func() { got = append(got, 1) })
	e.Schedule(2*Second, func() { got = append(got, 2) })
	e.Run(MaxTime)
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 3*Second {
		t.Fatalf("Now() = %v, want 3s", e.Now())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(Second, func() { got = append(got, i) })
	}
	e.Run(MaxTime)
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events fired out of order: %v", got)
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(2*Second, func() {})
	e.Run(MaxTime)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.Schedule(1*Second, func() {})
}

func TestScheduleNilPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("nil callback did not panic")
		}
	}()
	e.Schedule(Second, nil)
}

func TestRunUntilBound(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.Schedule(1*Second, func() { fired++ })
	e.Schedule(5*Second, func() { fired++ })
	n := e.Run(2 * Second)
	if n != 1 || fired != 1 {
		t.Fatalf("Run(2s) executed %d events (fired=%d), want 1", n, fired)
	}
	if e.Now() != 2*Second {
		t.Fatalf("clock = %v after bounded run, want 2s", e.Now())
	}
	n = e.Run(MaxTime)
	if n != 1 || fired != 2 {
		t.Fatalf("second Run executed %d, fired=%d", n, fired)
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(Second, func() { fired = true })
	if !ev.Cancel() {
		t.Fatal("Cancel returned false for a pending event")
	}
	if ev.Cancel() {
		t.Fatal("second Cancel returned true")
	}
	e.Run(MaxTime)
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelAfterFire(t *testing.T) {
	e := NewEngine()
	ev := e.Schedule(Second, func() {})
	e.Run(MaxTime)
	if ev.Cancel() {
		t.Fatal("Cancel after fire returned true")
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(1*Second, func() { got = append(got, 1); e.Stop() })
	e.Schedule(2*Second, func() { got = append(got, 2) })
	e.Run(MaxTime)
	if len(got) != 1 {
		t.Fatalf("Stop did not halt the run: %v", got)
	}
	// The queue still holds the second event.
	e.Run(MaxTime)
	if len(got) != 2 {
		t.Fatalf("resumed run missed events: %v", got)
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	e := NewEngine()
	var got []Time
	e.Schedule(Second, func() {
		e.After(Second, func() { got = append(got, e.Now()) })
	})
	e.Run(MaxTime)
	if len(got) != 1 || got[0] != 2*Second {
		t.Fatalf("nested schedule: got %v, want [2s]", got)
	}
}

func TestTicker(t *testing.T) {
	e := NewEngine()
	var fires []Time
	tk := e.NewTicker(Second, func(at Time) {
		fires = append(fires, at)
		if len(fires) == 5 {
			e.Stop()
		}
	})
	e.Run(MaxTime)
	if len(fires) != 5 {
		t.Fatalf("ticker fired %d times, want 5", len(fires))
	}
	for i, at := range fires {
		if want := Time(i+1) * Second; at != want {
			t.Fatalf("fire %d at %v, want %v", i, at, want)
		}
	}
	tk.Stop()
}

func TestTickerStopFromCallback(t *testing.T) {
	e := NewEngine()
	n := 0
	var tk *Ticker
	tk = e.NewTicker(Second, func(Time) {
		n++
		if n == 3 {
			tk.Stop()
		}
	})
	e.Run(100 * Second)
	if n != 3 {
		t.Fatalf("ticker fired %d times after Stop, want 3", n)
	}
}

func TestTickerStopIdempotent(t *testing.T) {
	e := NewEngine()
	tk := e.NewTicker(Second, func(Time) {})
	tk.Stop()
	tk.Stop()
	if e.Run(10*Second) != 0 {
		t.Fatal("stopped ticker still fired")
	}
}

func TestTickerBadPeriodPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("zero period did not panic")
		}
	}()
	e.NewTicker(0, func(Time) {})
}

func TestFiredCounter(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 7; i++ {
		e.Schedule(Time(i)*Second, func() {})
	}
	e.Run(MaxTime)
	if e.Fired() != 7 {
		t.Fatalf("Fired() = %d, want 7", e.Fired())
	}
}

// Property: for any set of timestamps, events fire in sorted order and the
// clock is monotonically non-decreasing.
func TestPropertyEventOrder(t *testing.T) {
	f := func(stamps []uint32) bool {
		e := NewEngine()
		var fired []Time
		last := Time(-1)
		mono := true
		for _, s := range stamps {
			at := Time(s) * Microsecond
			e.Schedule(at, func() {
				if e.Now() < last {
					mono = false
				}
				last = e.Now()
				fired = append(fired, e.Now())
			})
		}
		e.Run(MaxTime)
		if !mono || len(fired) != len(stamps) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling a random subset leaves exactly the complement firing.
func TestPropertyCancelSubset(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 42))
		e := NewEngine()
		total := int(n%64) + 1
		fired := make([]bool, total)
		evs := make([]Event, total)
		for i := 0; i < total; i++ {
			i := i
			evs[i] = e.Schedule(Time(rng.IntN(1000))*Millisecond, func() { fired[i] = true })
		}
		cancelled := make([]bool, total)
		for i := 0; i < total; i++ {
			if rng.IntN(2) == 0 {
				evs[i].Cancel()
				cancelled[i] = true
			}
		}
		e.Run(MaxTime)
		for i := 0; i < total; i++ {
			if fired[i] == cancelled[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Determinism: two identical simulations produce identical event traces.
func TestDeterminism(t *testing.T) {
	run := func() []Time {
		e := NewEngine()
		rng := rand.New(rand.NewPCG(7, 9))
		var trace []Time
		var spawn func()
		spawn = func() {
			trace = append(trace, e.Now())
			if len(trace) < 500 {
				e.After(Time(rng.IntN(100)+1)*Millisecond, spawn)
			}
		}
		e.Schedule(0, spawn)
		e.Run(MaxTime)
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 1000; j++ {
			e.Schedule(Time(j)*Microsecond, func() {})
		}
		e.Run(MaxTime)
	}
}

func BenchmarkTickerHot(b *testing.B) {
	e := NewEngine()
	n := 0
	e.NewTicker(Millisecond, func(Time) { n++ })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Run(e.Now() + Second)
	}
}
