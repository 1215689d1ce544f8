package chaos

import (
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/des"
	"repro/internal/mpi"
	"repro/internal/storage"
)

func mustParse(t *testing.T, text string) *Schedule {
	t.Helper()
	s, err := ParseSchedule(text)
	if err != nil {
		t.Fatalf("parse %q: %v", text, err)
	}
	return s
}

func TestParseScheduleFull(t *testing.T) {
	s := mustParse(t, `
# adversarial burst
crash at 2s..8s count 2 jitter 300ms group burst
commit-crash at 1s..30s count 2
partition at 2s..4s drop 0.85 group burst
brownout at 6s..9s drop 0.3 slow 2.5
storage-outage at 7s..8s
storage-brownout at 2s..10s rate 0.5
bitflip at 1200ms..5s count 4
crash-during-drain at 1s..20s phase deregister count 2
domain-crash at 5s..20s domain d1
parity-flip at 0s..30s count 8
crash every exp 3s
net loss 0.05 dup 0.01 jitter 200us seed 410
storage-decay transient 0.08 torn 0.05 corrupt 1 die-after 30 seed 0 store 1
`)
	if len(s.Specs) != 13 {
		t.Fatalf("parsed %d specs, want 13", len(s.Specs))
	}
	sp := s.Specs[0]
	if sp.Kind != Crash || sp.From != 2*des.Second || sp.To != 8*des.Second ||
		sp.Count != 2 || sp.Jitter != 300*des.Millisecond || sp.Group != "burst" {
		t.Fatalf("crash spec = %+v", sp)
	}
	if s.Specs[3].Slow != 2.5 || s.Specs[3].Drop != 0.3 {
		t.Fatalf("brownout spec = %+v", s.Specs[3])
	}
	if s.Specs[5].Rate != 0.5 {
		t.Fatalf("storage-brownout spec = %+v", s.Specs[5])
	}
	if s.Specs[7].Kind != DrainCrash || s.Specs[7].Phase != "deregister" || s.Specs[7].Count != 2 {
		t.Fatalf("crash-during-drain spec = %+v", s.Specs[7])
	}
	if s.Specs[8].Kind != DomainCrash || s.Specs[8].Domain != "d1" {
		t.Fatalf("domain-crash spec = %+v", s.Specs[8])
	}
	if sp := s.Specs[9]; sp.Kind != ParityFlip || sp.To != 30*des.Second || sp.Count != 8 {
		t.Fatalf("parity-flip spec = %+v", sp)
	}
	if sp := s.Specs[10]; sp.Kind != PoissonCrash || sp.Mean != 3*des.Second {
		t.Fatalf("crash every spec = %+v", sp)
	}
	if sp := s.Specs[11]; sp.Kind != Net || sp.Drop != 0.05 || sp.Dup != 0.01 ||
		sp.Jitter != 200*des.Microsecond || sp.Seed != 410 {
		t.Fatalf("net spec = %+v", sp)
	}
	if sp := s.Specs[12]; sp.Kind != StorageDecay || sp.Transient != 0.08 || sp.Torn != 0.05 ||
		sp.Corrupt != 1 || sp.DieAfter != 30 || sp.Seed != 0 || sp.Store != 1 {
		t.Fatalf("storage-decay spec = %+v", sp)
	}
}

func TestParseScheduleRejects(t *testing.T) {
	for name, text := range map[string]string{
		"empty":            "",
		"comments only":    "# nothing\n\n",
		"unknown kind":     "meteor at 1s..2s",
		"missing at":       "crash 1s..2s",
		"bad window":       "crash at 1s-2s",
		"reversed window":  "crash at 5s..2s",
		"negative dur":     "crash at -1s..2s",
		"dangling option":  "crash at 1s..2s count",
		"unknown option":   "crash at 1s..2s colour red",
		"bad count":        "crash at 1s..2s count x",
		"zero count":       "crash at 1s..2s count 0",
		"huge count":       "crash at 1s..2s count 1000000",
		"bad drop":         "partition at 1s..2s drop 1.5",
		"nan drop":         "partition at 1s..2s drop NaN",
		"nan rate":         "storage-brownout at 1s..2s rate nan",
		"nan slow":         "brownout at 1s..2s slow NaN",
		"huge slow":        "brownout at 1s..2s slow 1e9",
		"empty window":     "partition at 2s..2s",
		"garbage duration": "crash at eleventy..2s",
		"drain no phase":   "crash-during-drain at 1s..2s",
		"drain bad phase":  "crash-during-drain at 1s..2s phase warp",
		"every no exp":     "crash every 3s",
		"every no mean":    "crash every exp",
		"every zero mean":  "crash every exp 0s",
		"every neg mean":   "crash every exp -1s",
		"every jitter":     "crash every exp 3s jitter 1s",
		"every group":      "crash every exp 3s group g",
		"two clocks":       "crash every exp 3s\ncrash every exp 4s",
		"every window":     "crash every exp 3s at 1s..2s",
		"net at window":    "net at 1s..2s loss 0.1",
		"net nothing":      "net",
		"net seed only":    "net seed 4",
		"net bad loss":     "net loss 1",
		"net nan dup":      "net dup NaN",
		"net zero seed":    "net loss 0.1 seed 0",
		"net bad seed":     "net loss 0.1 seed -3",
		"net group":        "net loss 0.1 group g",
		"two nets":         "net loss 0.1\nnet dup 0.1",
		"flip no window":   "parity-flip",
		"flip empty":       "parity-flip at 1s..1s",
		"flip jitter":      "parity-flip at 1s..2s jitter 1s",
		"flip group":       "parity-flip at 1s..2s group g",
		"decay nothing":    "storage-decay",
		"decay seed only":  "storage-decay seed 4 store 1",
		"decay at window":  "storage-decay at 1s..2s transient 0.1",
		"decay big rate":   "storage-decay torn 1.5",
		"decay nan rate":   "storage-decay corrupt NaN",
		"decay zero die":   "storage-decay die-after 0",
		"decay neg die":    "storage-decay die-after -3",
		"decay neg store":  "storage-decay transient 0.1 store -1",
		"decay bad seed":   "storage-decay transient 0.1 seed -1",
		"decay twice":      "storage-decay transient 0.1\nstorage-decay die-after 9 store 0",
		"decay jitter":     "storage-decay transient 0.1 jitter 1s",
		"decay count":      "storage-decay transient 0.1 count 2",
		"decay group":      "storage-decay transient 0.1 group g",
		"timed store":      "storage-outage at 1s..2s store 1",
	} {
		if _, err := ParseSchedule(text); err == nil {
			t.Errorf("%s: %q accepted", name, text)
		}
	}
}

// Compilation is a pure function of (schedule, seed): identical twice,
// different under a different seed, and group-correlated specs land at
// the same fractional window position.
func TestCompileDeterministicAndSeeded(t *testing.T) {
	s := mustParse(t, `
crash at 2s..8s count 3 jitter 300ms
partition at 2s..4s
bitflip at 1s..5s count 2
`)
	a, err := s.Compile(42)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := s.Compile(42)
	c, _ := s.Compile(43)
	for i := range a.Crashes {
		if a.Crashes[i] != b.Crashes[i] {
			t.Fatalf("same seed, different crash instants: %v vs %v", a.Crashes, b.Crashes)
		}
	}
	same := len(a.Crashes) == len(c.Crashes)
	if same {
		for i := range a.Crashes {
			if a.Crashes[i] != c.Crashes[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatalf("seed 42 and 43 compiled identical crash instants: %v", a.Crashes)
	}
	if len(a.Crashes) != 3 || len(a.BitFlips) != 2 || a.Net == nil || len(a.Net.Windows) != 1 {
		t.Fatalf("plan shape: %+v", a)
	}
	for i := 1; i < len(a.Crashes); i++ {
		if a.Crashes[i] < a.Crashes[i-1] {
			t.Fatalf("crash instants not ascending: %v", a.Crashes)
		}
	}
	for _, at := range a.Crashes {
		if at < 2*des.Second || at > 8*des.Second {
			t.Fatalf("crash instant %v escaped its window", at)
		}
	}
}

func TestCompileGroupCorrelation(t *testing.T) {
	s := mustParse(t, `
crash at 0s..10s group g
crash at 100s..110s group g
`)
	p, err := s.Compile(7)
	if err != nil {
		t.Fatal(err)
	}
	// Same group, same-width windows → same offset from each window start.
	off0 := p.Crashes[0]
	off1 := p.Crashes[1] - 100*des.Second
	if off0 != off1 {
		t.Fatalf("grouped specs drew different fractions: %v vs %v", off0, off1)
	}
}

// horizon returns the virtual time after which p injects nothing more
// (whole-run faults have no end of their own).
func horizon(p *Plan) des.Time {
	var h des.Time
	for _, t := range p.Crashes {
		h = max(h, t)
	}
	for _, t := range p.BitFlips {
		h = max(h, t)
	}
	windows := slices.Concat(p.CommitCrashes, p.Outages, p.ParityFlips)
	for _, w := range p.Brownouts {
		windows = append(windows, w.Window)
	}
	for _, w := range p.DrainCrashes {
		windows = append(windows, w.Window)
	}
	for _, w := range p.DomainCrashes {
		windows = append(windows, w.Window)
	}
	if p.Net != nil {
		for _, w := range p.Net.Windows {
			windows = append(windows, Window{From: w.From, To: w.To})
		}
	}
	for _, w := range windows {
		h = max(h, w.To)
	}
	return h
}

// events counts p's discrete injections (crashes, commit kills, bit and
// parity flips); windows and whole-run faults count once each.
func events(p *Plan) int {
	n := len(p.Crashes) + len(p.CommitCrashes) + len(p.BitFlips) +
		len(p.Outages) + len(p.Brownouts) + len(p.DrainCrashes) +
		len(p.DomainCrashes) + len(p.ParityFlips) + len(p.Decays)
	if p.CrashMean > 0 {
		n++
	}
	if p.Net != nil {
		n += len(p.Net.Windows)
		if p.Net.DropRate > 0 || p.Net.DupRate > 0 || p.Net.JitterMax > 0 {
			n++
		}
	}
	return n
}

func TestPlanHorizonAndEvents(t *testing.T) {
	s := mustParse(t, "crash at 1s..2s\nstorage-outage at 5s..9s")
	p, err := s.Compile(1)
	if err != nil {
		t.Fatal(err)
	}
	if h := horizon(p); h != 9*des.Second {
		t.Fatalf("horizon %v, want 9s", h)
	}
	if events(p) != 2 {
		t.Fatalf("events %d, want 2", events(p))
	}
}

func TestValidateRejectsHostileSpecs(t *testing.T) {
	nan := func() float64 { var z float64; return z / z }() // NaN without math import
	for name, sp := range map[string]Spec{
		"unknown kind": {Kind: kindCount, To: des.Second},
		"huge kind":    {Kind: kindCount + 7, To: des.Second},
		"zero mean":    {Kind: PoissonCrash},
		"neg mean":     {Kind: PoissonCrash, Mean: -des.Second},
		"nan dup":      {Kind: Net, Dup: nan},
		"net nothing":  {Kind: Net, Seed: 9},
		"flip empty":   {Kind: ParityFlip, From: des.Second, To: des.Second},
		"drain phase":  {Kind: DrainCrash, To: des.Second, Phase: "warp"},
		"neg window":   {Kind: Crash, From: -1},
		"nan drop":     {Kind: Partition, To: des.Second, Drop: nan},
		"nan rate":     {Kind: StorageBrownout, To: des.Second, Rate: nan},
		"nan slow":     {Kind: Brownout, To: des.Second, Slow: nan},
		"decay nan":    {Kind: StorageDecay, Transient: nan},
		"decay big":    {Kind: StorageDecay, Torn: 2},
		"decay neg":    {Kind: StorageDecay, DieAfter: -1},
		"decay store":  {Kind: StorageDecay, DieAfter: 1, Store: -2},
	} {
		s := &Schedule{Specs: []Spec{sp}}
		if err := s.Validate(); err == nil {
			t.Errorf("%s: %+v validated", name, sp)
		}
	}
}

// The driver's timed store: operations inside an outage window refuse
// with ErrUnavailable, a brownout drops a seeded fraction with
// ErrTransient, and outside all windows the store is transparent.
func TestDriverTimedStore(t *testing.T) {
	s := mustParse(t, "storage-outage at 1s..2s\nstorage-brownout at 3s..5s rate 0.99")
	p, err := s.Compile(1)
	if err != nil {
		t.Fatal(err)
	}
	eng := des.NewEngine()
	d := NewDriver(eng, p)
	st := d.WrapStore(storage.NewMemStore())
	if err := st.Put("k", []byte("v")); err != nil {
		t.Fatalf("put before any window: %v", err)
	}
	var outageErr, brownErr error
	eng.Schedule(1500*des.Millisecond, func() { _, outageErr = st.Get("k") })
	eng.Schedule(4*des.Second, func() {
		// 20 tries at 99% drop: overwhelmingly likely to observe one.
		for i := 0; i < 20; i++ {
			if _, err := st.Get("k"); err != nil {
				brownErr = err
				return
			}
		}
	})
	eng.Run(des.MaxTime)
	if !errors.Is(outageErr, storage.ErrUnavailable) {
		t.Fatalf("outage-window get: %v", outageErr)
	}
	if !errors.Is(brownErr, storage.ErrTransient) {
		t.Fatalf("brownout-window get: %v", brownErr)
	}
	stats := d.Stats()
	if stats.OutageRefusals == 0 || stats.BrownoutDrops == 0 {
		t.Fatalf("stats did not count the refusals: %+v", stats)
	}
}

// A bit flip mutates exactly one stored bit, silently: the store still
// serves the key, but the payload differs from what was written.
func TestDriverBitFlip(t *testing.T) {
	s := mustParse(t, "bitflip at 1s..2s")
	p, err := s.Compile(1)
	if err != nil {
		t.Fatal(err)
	}
	eng := des.NewEngine()
	d := NewDriver(eng, p)
	st := d.WrapStore(storage.NewMemStore())
	orig := []byte{0xAA, 0xBB, 0xCC}
	if err := st.Put("seg", append([]byte(nil), orig...)); err != nil {
		t.Fatal(err)
	}
	eng.Run(des.MaxTime)
	if d.Stats().BitFlips != 1 {
		t.Fatalf("stats = %+v, want 1 flip", d.Stats())
	}
	got, err := st.Get("seg")
	if err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := range got {
		for b := 0; b < 8; b++ {
			if (got[i]^orig[i])&(1<<b) != 0 {
				diff++
			}
		}
	}
	if diff != 1 {
		t.Fatalf("%d bits differ, want exactly 1 (%x vs %x)", diff, got, orig)
	}
}

// A flip instant on an empty store is a counted miss, not a panic.
func TestDriverBitFlipMiss(t *testing.T) {
	s := mustParse(t, "bitflip at 1s..2s")
	p, _ := s.Compile(1)
	eng := des.NewEngine()
	d := NewDriver(eng, p)
	d.WrapStore(storage.NewMemStore())
	eng.Run(des.MaxTime)
	if st := d.Stats(); st.BitFlips != 0 || st.BitFlipMisses != 1 {
		t.Fatalf("stats = %+v, want one miss", st)
	}
}

// The plan's interconnect model: a plan holding only windows is seeded
// from the plan, a net line brings its steady loss, duplication, jitter
// and seed with the windows composed in spec order, and a schedule that
// degrades no link leaves the network bit-for-bit clean (no model).
func TestCompiledNetFaults(t *testing.T) {
	p, _ := mustParse(t, "partition at 2s..4s drop 0.9").Compile(5)
	if p.Net == nil || p.Net.Seed != 5^0x9E77 || len(p.Net.Windows) != 1 || p.Net.Windows[0].ExtraDrop != 0.9 ||
		p.Net.DropRate != 0 || p.Net.DupRate != 0 || p.Net.JitterMax != 0 {
		t.Fatalf("windows only: %+v", p.Net)
	}

	p, _ = mustParse(t, "brownout at 6s..9s drop 0.3 slow 2.5\nnet loss 0.1 dup 0.02 jitter 300us seed 77\npartition at 1s..2s").Compile(5)
	want := mpi.NetFaultConfig{Seed: 77, DropRate: 0.1, DupRate: 0.02, JitterMax: 300 * des.Microsecond, Windows: []mpi.DegradedWindow{
		{From: 6 * des.Second, To: 9 * des.Second, ExtraDrop: 0.3, SlowFactor: 2.5},
		{From: 1 * des.Second, To: 2 * des.Second, ExtraDrop: 0.85, SlowFactor: 1},
	}}
	if p.Net == nil || !reflect.DeepEqual(*p.Net, want) {
		t.Fatalf("net line with windows: %+v, want %+v", p.Net, want)
	}
	if p, _ := mustParse(t, "net jitter 1ms").Compile(5); p.Net == nil || p.Net.Seed != 5^0x9E77 {
		t.Fatalf("net line without a seed: %+v", p.Net)
	}

	p, _ = mustParse(t, "crash at 1s..2s\nstorage-outage at 3s..4s\ncrash every exp 1s").Compile(5)
	if p.Net != nil {
		t.Fatalf("clean network compiled a fault model: %+v", p.Net)
	}
}

// An option a line omits takes its kind's default, and a written zero
// is zero, parsed and compiled: a partition that drops nothing, a
// brownout that only slows or only drops, a storage brownout that
// refuses nothing.
func TestWrittenZeroIsZero(t *testing.T) {
	for _, c := range []struct {
		text             string
		drop, slow, rate float64 // as parsed
	}{
		{"partition at 1s..2s", 0.85, 0, 0},
		{"partition at 1s..2s drop 0", 0, 0, 0},
		{"brownout at 1s..2s", 0.2, 2, 0},
		{"brownout at 1s..2s drop 0", 0, 2, 0},
		{"brownout at 1s..2s slow 0", 0.2, 0, 0},
		{"brownout at 0s..1h slow 50 drop 0", 0, 50, 0},
		{"storage-brownout at 1s..2s", 0, 0, 0.5},
		{"storage-brownout at 1s..2s rate 0", 0, 0, 0},
	} {
		s := mustParse(t, c.text)
		if sp := s.Specs[0]; sp.Drop != c.drop || sp.Slow != c.slow || sp.Rate != c.rate {
			t.Errorf("%q parsed drop %v slow %v rate %v, want %v %v %v", c.text, sp.Drop, sp.Slow, sp.Rate, c.drop, c.slow, c.rate)
		}
		p, err := s.Compile(1)
		if err != nil {
			t.Fatalf("%q: %v", c.text, err)
		}
		switch s.Specs[0].Kind {
		case StorageBrownout:
			if got := p.Brownouts[0].Rate; got != c.rate {
				t.Errorf("%q compiled rate %v, want %v", c.text, got, c.rate)
			}
		default:
			slow := c.slow
			if s.Specs[0].Kind == Partition {
				slow = 1
			}
			if w := p.Net.Windows[0]; w.ExtraDrop != c.drop || w.SlowFactor != slow {
				t.Errorf("%q compiled drop %v slow %v, want %v %v", c.text, w.ExtraDrop, w.SlowFactor, c.drop, slow)
			}
		}
	}
}

func TestCommitCrashDelayConsumesWindows(t *testing.T) {
	s := mustParse(t, "commit-crash at 1s..10s count 2")
	p, _ := s.Compile(3)
	d := NewDriver(des.NewEngine(), p)
	now, last := 2*des.Second, 4*des.Second
	d1, ok := d.CommitCrashDelay(now, last)
	if !ok || d1 < 0 || now+d1 >= last {
		t.Fatalf("first delay %v/%v not strictly inside the commit window", d1, ok)
	}
	if _, ok := d.CommitCrashDelay(now, last); !ok {
		t.Fatal("second planned round not consumed")
	}
	if _, ok := d.CommitCrashDelay(now, last); ok {
		t.Fatal("third round killed with only two planned")
	}
	if _, ok := d.CommitCrashDelay(20*des.Second, 21*des.Second); ok {
		t.Fatal("round outside every window killed")
	}
}

// A domain-crash window fires once per planned round, carries its domain
// name through compilation, and draws its kill instant strictly inside
// the commit pause.
func TestDomainCrashDelayConsumesWindows(t *testing.T) {
	s := mustParse(t, "domain-crash at 1s..10s domain d1 count 2")
	p, err := s.Compile(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.DomainCrashes) != 2 || p.DomainCrashes[0].Domain != "d1" {
		t.Fatalf("plan domain crashes: %+v", p.DomainCrashes)
	}
	d := NewDriver(des.NewEngine(), p)
	if _, _, ok := d.DomainCrashDelay(500*des.Millisecond, des.Second); ok {
		t.Fatal("kill outside the window")
	}
	now, end := 2*des.Second, 4*des.Second
	name, delay, ok := d.DomainCrashDelay(now, end)
	if !ok || name != "d1" || delay < 0 || now+delay >= end {
		t.Fatalf("first round: name=%q delay=%v ok=%v", name, delay, ok)
	}
	if name, _, ok := d.DomainCrashDelay(now, end); !ok || name != "d1" {
		t.Fatal("second planned round not consumed")
	}
	if _, _, ok := d.DomainCrashDelay(now, end); ok {
		t.Fatal("third round killed with only two planned")
	}
	if d.Stats().DomainCrashes != 2 {
		t.Fatalf("stats = %+v, want 2 domain crashes", d.Stats())
	}
	// A degenerate pause (end <= now) still kills, at delay zero.
	p2, _ := mustParse(t, "domain-crash at 1s..10s domain rack0").Compile(9)
	d2 := NewDriver(des.NewEngine(), p2)
	if name, delay, ok := d2.DomainCrashDelay(now, now); !ok || name != "rack0" || delay != 0 {
		t.Fatalf("degenerate pause: name=%q delay=%v ok=%v", name, delay, ok)
	}
}

// A drain-crash window fires once per planned round, only for its own
// phase, only inside its window.
func TestDrainCrashHitConsumesWindows(t *testing.T) {
	s := mustParse(t, "crash-during-drain at 1s..10s phase deregister count 2")
	p, err := s.Compile(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.DrainCrashes) != 2 || p.DrainCrashes[0].Phase != mpi.PhaseDeregister {
		t.Fatalf("plan drain crashes: %+v", p.DrainCrashes)
	}
	d := NewDriver(des.NewEngine(), p)
	if d.DrainCrashHit(mpi.PhaseQuiesce, 2*des.Second) {
		t.Fatal("wrong phase killed")
	}
	if d.DrainCrashHit(mpi.PhaseDeregister, 500*des.Millisecond) {
		t.Fatal("kill outside the window")
	}
	if !d.DrainCrashHit(mpi.PhaseDeregister, 2*des.Second) {
		t.Fatal("first planned round not killed")
	}
	if !d.DrainCrashHit(mpi.PhaseDeregister, 3*des.Second) {
		t.Fatal("second planned round not killed")
	}
	if d.DrainCrashHit(mpi.PhaseDeregister, 4*des.Second) {
		t.Fatal("third round killed with only two planned")
	}
	if d.Stats().DrainCrashes != 2 {
		t.Fatalf("stats = %+v, want 2 drain crashes", d.Stats())
	}
}

// FuzzParseSchedule holds the parser to its contract: malformed
// schedules error, hostile bytes never panic, and anything that parses
// also validates and compiles.
func FuzzParseSchedule(f *testing.F) {
	f.Add("crash at 2s..8s count 2 jitter 300ms group burst")
	f.Add("commit-crash at 1s..30s count 2\npartition at 2s..4s drop 0.85")
	f.Add("# comment\nstorage-brownout at 2s..10s rate 0.5\nbitflip at 1200ms..5s count 4")
	f.Add("brownout at 6s..9s drop 0.3 slow 2.5")
	f.Add("crash at 1s..2s drop NaN")
	f.Add("crash at -1s..2s")
	f.Add("storage-outage at 9223372036854775807ns..9223372036854775807ns")
	f.Add("crash-during-drain at 1s..20s phase deregister count 2")
	f.Add("crash-during-drain at 1s..2s phase warp")
	f.Add("crash-during-drain at 1s..2s")
	f.Add("domain-crash at 5s..20s domain d1")
	f.Add("domain-crash at 5s..20s domain d1 count 2 jitter 100ms")
	f.Add("domain-crash at 5s..20s")
	f.Add("domain-crash at 5s..5s domain d0")
	f.Add("crash every exp 3s")
	f.Add("crash every exp 0s")
	f.Add("crash every exp 3s jitter 1s\ncrash every exp 4s")
	f.Add("net loss 0.05 dup 0.01 jitter 200us seed 410")
	f.Add("net loss 0.1\npartition at 2s..4s\nnet dup 0.5")
	f.Add("net seed 0")
	f.Add("parity-flip at 0s..30s count 8")
	f.Add("parity-flip at 1s..1s group g")
	f.Add("partition at 1s..2s drop 0")
	f.Add("brownout at 0s..1h slow 50 drop 0")
	f.Add("brownout at 1s..2s slow 0")
	f.Add("storage-brownout at 1s..2s rate 0")
	f.Add("storage-decay transient 0.08 torn 0.05 corrupt 0.05 die-after 30 seed 7 store 1")
	f.Add("storage-decay die-after 40 seed 1 store 0\nstorage-decay transient 1 seed 18446744073709551615 store 1")
	f.Add("storage-decay seed 0")
	f.Add("storage-decay corrupt 1 store 9223372036854775807")
	f.Add("storage-decay torn 0.5\nstorage-decay torn 0.5")
	f.Add("storage-outage at 1s..2s store 0\nstorage-decay die-after 1 count 1")
	f.Fuzz(func(t *testing.T, text string) {
		s, err := ParseSchedule(text)
		if err != nil {
			if s != nil {
				t.Fatal("error with non-nil schedule")
			}
			return
		}
		if len(s.Specs) == 0 {
			t.Fatal("empty schedule parsed without error")
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("parsed schedule fails validation: %v", err)
		}
		p, err := s.Compile(1)
		if err != nil {
			t.Fatalf("parsed schedule fails compilation: %v", err)
		}
		if events(p) == 0 {
			t.Fatal("non-empty schedule compiled to zero events")
		}
		// Before any WrapStore call, a driver wraps every store the
		// plan strikes exactly when it strikes none.
		if NewDriver(des.NewEngine(), p).Wraps() == p.HitsStorage() {
			t.Fatalf("Wraps with no store wrapped = %v for a plan hitting storage = %v", !p.HitsStorage(), p.HitsStorage())
		}
		// Round-trip sanity on spec kinds' names.
		for _, sp := range s.Specs {
			if strings.Contains(sp.Kind.String(), "chaos.Kind") {
				t.Fatalf("parsed spec has unnamed kind %d", sp.Kind)
			}
		}
	})
}
