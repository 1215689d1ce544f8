package migrate

import (
	"bytes"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/des"
	"repro/internal/mem"
	"repro/internal/storage"
)

const pageSize = 4096

func pair(t *testing.T) (*des.Engine, *mem.AddressSpace, *mem.AddressSpace) {
	t.Helper()
	eng := des.NewEngine()
	src := mem.NewAddressSpace(mem.Config{PageSize: pageSize})
	dst := mem.NewAddressSpace(mem.Config{PageSize: pageSize})
	return eng, src, dst
}

// slowLink transfers one page per virtual second.
func slowLink() storage.Model {
	return storage.Model{Name: "slow", Bandwidth: pageSize}
}

// A srcWrite is one write the test issued to the migrating source.
type srcWrite struct {
	at   des.Time
	off  uint64
	data []byte
}

// equalsSourceAtPause reports whether got is what initial becomes under
// the writes of log (in issue order) up to the migration's final
// stop-and-copy, res.CompletedAt - res.Downtime. A write at that very
// instant may have landed on either side of the copy.
func equalsSourceAtPause(got, initial []byte, log []srcWrite, res Result) bool {
	pause := res.CompletedAt - res.Downtime
	want := bytes.Clone(initial)
	i := 0
	for ; i < len(log) && log[i].at < pause; i++ {
		copy(want[log[i].off:], log[i].data)
	}
	for ; !bytes.Equal(got, want) && i < len(log) && log[i].at == pause; i++ {
		copy(want[log[i].off:], log[i].data)
	}
	return bytes.Equal(got, want)
}

func TestQuiescentMigration(t *testing.T) {
	eng, src, dst := pair(t)
	r, _ := src.Mmap(8 * pageSize)
	src.Write(r.Start(), bytes.Repeat([]byte{0xAB}, 8*pageSize))
	m, err := New(eng, src, dst, Options{Link: slowLink()})
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	done := false
	if err := m.Run(func(rr Result, err error) {
		if err != nil {
			t.Error(err)
		}
		res = rr
		done = true
	}); err != nil {
		t.Fatal(err)
	}
	eng.Run(des.MaxTime)
	if !done {
		t.Fatal("migration never completed")
	}
	// A quiescent source converges after round 0 with zero downtime
	// pages.
	if len(res.Rounds) != 1 || res.Rounds[0].Pages != 8 {
		t.Fatalf("rounds: %+v", res.Rounds)
	}
	if res.DowntimePages != 0 || !res.Converged {
		t.Fatalf("result: %+v", res)
	}
	got := make([]byte, 8*pageSize)
	if err := dst.Read(r.Start(), got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bytes.Repeat([]byte{0xAB}, 8*pageSize)) {
		t.Fatal("destination contents differ")
	}
}

func TestLiveMigrationUnderWrites(t *testing.T) {
	eng, src, dst := pair(t)
	const pages = 16
	r, _ := src.Mmap(pages * pageSize)
	initial := bytes.Repeat([]byte{1}, pages*pageSize)
	src.Write(r.Start(), initial)

	m, err := New(eng, src, dst, Options{
		Link:      slowLink(),
		StopPages: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A writer keeps dirtying a shrinking set of pages, through the
	// cutover and past it: the source is never told to stop.
	var log []srcWrite
	var writer func(i int)
	writer = func(i int) {
		if i == 60 {
			return
		}
		n := max(1, 8-i) // shrinking working set → convergence
		data := bytes.Repeat([]byte{byte(i)}, n*pageSize)
		src.Write(r.Start(), data)
		log = append(log, srcWrite{eng.Now(), 0, data})
		eng.After(des.Second, func() { writer(i + 1) })
	}
	eng.After(des.Second/2, func() { writer(0) })

	var res Result
	if err := m.Run(func(rr Result, err error) { res = rr }); err != nil {
		t.Fatal(err)
	}
	eng.Run(des.MaxTime)

	if len(res.Rounds) < 2 {
		t.Fatalf("expected pre-copy rounds under live writes: %+v", res.Rounds)
	}
	if last := log[len(log)-1].at; last <= res.CompletedAt {
		t.Fatalf("writer stopped at %v, before the migration completed at %v", last, res.CompletedAt)
	}
	// The defining property: destination == source at the pause.
	got := make([]byte, pages*pageSize)
	dst.Read(r.Start(), got)
	if !equalsSourceAtPause(got, initial, log, res) {
		t.Fatal("destination diverged from the source as of the final copy")
	}
	// Total traffic exceeds the footprint (re-copied dirty pages).
	if res.TotalBytes <= pages*pageSize {
		t.Fatalf("total bytes %d too small for live migration", res.TotalBytes)
	}
	// Writes after completion don't fault (handler removed).
	before := src.Faults()
	src.Write(r.Start(), []byte{9})
	if src.Faults() != before {
		t.Fatal("source still tracked after migration")
	}
}

func TestNonConvergingForcesPause(t *testing.T) {
	eng, src, dst := pair(t)
	const pages = 32
	r, _ := src.Mmap(pages * pageSize)
	m, _ := New(eng, src, dst, Options{
		Link:      slowLink(),
		StopPages: 1,
		MaxRounds: 20,
	})
	// A writer that redirties the whole footprint continuously: the
	// delta never shrinks, so the migrator must cut over anyway.
	var writer func()
	writer = func() {
		if eng.Now() > 10*pages*des.Second {
			return
		}
		src.WriteRange(r.Start(), pages*pageSize)
		eng.After(des.Second/4, writer)
	}
	eng.After(des.Second/4, writer)
	var res Result
	m.Run(func(rr Result, err error) { res = rr })
	eng.Run(des.MaxTime)
	if res.Converged {
		t.Fatal("non-converging migration reported convergence")
	}
	if res.DowntimePages == 0 {
		t.Fatal("forced cutover should pay downtime")
	}
	// Downtime bounded by footprint / link.
	if res.Downtime > slowLink().WriteTime(pages*pageSize) {
		t.Fatalf("downtime %v exceeds full-copy time", res.Downtime)
	}
}

func TestValidation(t *testing.T) {
	eng := des.NewEngine()
	src := mem.NewAddressSpace(mem.Config{PageSize: 4096})
	dstBad := mem.NewAddressSpace(mem.Config{PageSize: 8192})
	if _, err := New(eng, src, dstBad, Options{}); err == nil {
		t.Fatal("page size mismatch accepted")
	}
	phantom := mem.NewAddressSpace(mem.Config{PageSize: 4096, Phantom: true})
	if _, err := New(eng, src, phantom, Options{}); err == nil {
		t.Fatal("backing mismatch accepted")
	}
	occupied := mem.NewAddressSpace(mem.Config{PageSize: 4096})
	occupied.Mmap(4096)
	if _, err := New(eng, src, occupied, Options{}); err == nil {
		t.Fatal("occupied destination accepted")
	}
	m, _ := New(eng, src, mem.NewAddressSpace(mem.Config{PageSize: 4096}), Options{})
	if err := m.Run(nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(nil); err == nil {
		t.Fatal("double Run accepted")
	}
}

func TestPhantomMigrationMetadataOnly(t *testing.T) {
	eng := des.NewEngine()
	src := mem.NewAddressSpace(mem.Config{PageSize: pageSize, Phantom: true})
	dst := mem.NewAddressSpace(mem.Config{PageSize: pageSize, Phantom: true})
	r, _ := src.Mmap(64 * pageSize)
	src.WriteRange(r.Start(), 64*pageSize)
	m, _ := New(eng, src, dst, Options{Link: storage.QsNetSink()})
	var res Result
	m.Run(func(rr Result, err error) { res = rr })
	eng.Run(des.MaxTime)
	if res.Rounds[0].Pages != 64 {
		t.Fatalf("rounds: %+v", res.Rounds)
	}
	if dst.Find(r.Start()) == nil {
		t.Fatal("destination layout not replicated")
	}
}

// Property: for random writer schedules, the destination always matches
// the source at the pause instant.
func TestPropertyLiveMigrationConsistency(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 111))
		eng := des.NewEngine()
		src := mem.NewAddressSpace(mem.Config{PageSize: 512})
		dst := mem.NewAddressSpace(mem.Config{PageSize: 512})
		const pages = 24
		r, _ := src.Mmap(pages * 512)
		m, _ := New(eng, src, dst, Options{
			Link:      storage.Model{Name: "l", Bandwidth: 512 * float64(rng.IntN(6)+1)},
			StopPages: uint64(rng.IntN(4) + 1),
			MaxRounds: rng.IntN(6) + 2,
		})
		var log []srcWrite
		for i := 0; i < rng.IntN(30); i++ {
			w := srcWrite{
				at:   des.Time(rng.IntN(20000)) * des.Millisecond,
				off:  uint64(rng.IntN(pages)) * 512,
				data: bytes.Repeat([]byte{byte(rng.IntN(256))}, 512),
			}
			log = append(log, w)
			eng.Schedule(w.at, func() { src.Write(r.Start()+w.off, w.data) })
		}
		// Same-instant events fire in scheduling order.
		sort.SliceStable(log, func(i, j int) bool { return log[i].at < log[j].at })
		var res Result
		if m.Run(func(rr Result, _ error) { res = rr }) != nil {
			return false
		}
		eng.Run(des.MaxTime)
		got := make([]byte, pages*512)
		dst.Read(r.Start(), got)
		return equalsSourceAtPause(got, make([]byte, pages*512), log, res)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// The source's layout moves while it migrates — Sage's allocator maps
// and frees arenas all the time — and the destination must follow: an
// arena mapped mid-round arrives with its contents, one unmapped
// mid-round is gone at the cutover, and a recycled address carries the
// new arena's bytes, not the old one's.
func TestMigrationFollowsSourceLayout(t *testing.T) {
	eng, src, dst := pair(t)
	keep, _ := src.Mmap(4 * pageSize)
	old, _ := src.Mmap(4 * pageSize)
	src.Write(keep.Start(), bytes.Repeat([]byte{1}, 4*pageSize))
	src.Write(old.Start(), bytes.Repeat([]byte{2}, 4*pageSize))
	m, err := New(eng, src, dst, Options{Link: slowLink(), StopPages: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The source's image after each writer step, to compare the
	// destination with the one current at the cutover.
	type image struct {
		at     des.Time
		digest uint64
	}
	images := []image{{0, src.Digest(nil)}}
	step := func(at des.Time, fn func()) {
		eng.Schedule(at, func() {
			fn()
			images = append(images, image{at, src.Digest(nil)})
		})
	}
	// Round 0 moves 8 pages at one page a second. Mid-round the writer
	// maps a larger arena (a fresh address), fills it and frees an old
	// one; a round later it maps a small arena into the freed slot.
	var fresh, recycled *mem.Region
	step(3500*des.Millisecond, func() {
		fresh, _ = src.Mmap(6 * pageSize)
		src.Write(fresh.Start(), bytes.Repeat([]byte{3}, 6*pageSize))
		if err := src.Munmap(old); err != nil {
			t.Error(err)
		}
	})
	step(9500*des.Millisecond, func() {
		recycled, _ = src.Mmap(2 * pageSize)
		if recycled.Start() != old.Start() {
			t.Errorf("arena mapped at %#x, want the freed slot %#x", recycled.Start(), old.Start())
		}
		src.Write(recycled.Start()+pageSize, bytes.Repeat([]byte{4}, pageSize))
		src.Write(fresh.Start(), bytes.Repeat([]byte{5}, pageSize))
	})
	var res Result
	done := false
	if err := m.Run(func(rr Result, err error) {
		if err != nil {
			t.Error(err)
		}
		res, done = rr, true
	}); err != nil {
		t.Fatal(err)
	}
	eng.Run(des.MaxTime)
	if !done {
		t.Fatal("migration never completed")
	}
	want := images[0]
	for _, im := range images {
		if im.at < res.CompletedAt-res.Downtime {
			want = im
		}
	}
	if got := dst.Digest(nil); got != want.digest {
		t.Errorf("destination digest %#x, source at the cutover (image of %v) %#x", got, want.at, want.digest)
	}
	if want != images[len(images)-1] {
		t.Errorf("cutover at %v, before the writer's last step: rounds %+v", res.CompletedAt-res.Downtime, res.Rounds)
	}
}
