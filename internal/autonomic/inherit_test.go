package autonomic

import (
	"bytes"
	"testing"
	"unsafe"

	"repro/internal/ckpt"
	"repro/internal/des"
	"repro/internal/mem"
	"repro/internal/mpi"
	"repro/internal/storage"
)

// spaceRecorder lists, run by run (engine by engine), the spaces of every
// team its workload is built or re-attached on. plant, when set, runs on
// each build after the workload's own, with the run's build count.
type spaceRecorder struct {
	Factory
	teams map[*des.Engine][][]*mem.AddressSpace
	plant func(world *mpi.World, build, iter int)
}

func (f *spaceRecorder) note(eng *des.Engine, world *mpi.World, iter int) {
	if f.teams == nil {
		f.teams = make(map[*des.Engine][][]*mem.AddressSpace)
	}
	var team []*mem.AddressSpace
	for i := 0; i < world.Size(); i++ {
		team = append(team, world.Rank(i).Space())
	}
	f.teams[eng] = append(f.teams[eng], team)
	if f.plant != nil {
		f.plant(world, len(f.teams[eng])-1, iter)
	}
}

func (f *spaceRecorder) New(eng *des.Engine, world *mpi.World) (Computation, error) {
	c, err := f.Factory.New(eng, world)
	if err == nil {
		f.note(eng, world, 0)
	}
	return c, err
}

func (f *spaceRecorder) Attach(eng *des.Engine, world *mpi.World, iter int) (Computation, error) {
	c, err := f.Factory.Attach(eng, world, iter)
	if err == nil {
		f.note(eng, world, iter)
	}
	return c, err
}

// TestInheritEveryDeadSpace: every team a failure stops hands its spaces
// to the recovery that replaces it — by a restore, a scratch restart,
// after a heartbeat detection, across a respawn a second failure
// cancels and across a store outage — so each ends emptied
// (mem.AddressSpace.Inherit), and the replay stays bit-exact with every
// recovery judged.
func TestInheritEveryDeadSpace(t *testing.T) {
	heartbeat := chaosBaseConfig(5)
	heartbeat.Faults, heartbeat.HeartbeatPeriod = "crash every exp 3s", 50*des.Millisecond
	scratch := chaosBaseConfig(3)
	scratch.Faults = "crash at 300ms..310ms\ncrash at 3s..3010ms"
	nested := chaosBaseConfig(3)
	nested.Faults = "crash at 2s..2010ms\ncrash at 2200ms..2210ms\ncrash at 5s..5010ms"
	outage := healStencilConfig(6)
	outage.Replicas = 1
	outage.Faults = "crash at 2s..12s count 2 jitter 300ms\nstorage-outage at 7s..8s"
	multilevel := mlBaseConfig(7, MultiLevelOptions{})
	multilevel.Faults = "crash every exp 3s"
	for name, cfg := range map[string]Config{
		"restore":    func() Config { c := chaosBaseConfig(9); c.Faults = "crash every exp 3s"; return c }(),
		"heartbeat":  heartbeat,
		"scratch":    scratch,
		"nested":     nested,
		"outage":     outage,
		"multilevel": multilevel,
	} {
		rec := &spaceRecorder{Factory: cfg.withDefaults().Workload}
		cfg.Workload = rec
		out, err := ValidateReplay(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !out.BitExact() {
			t.Errorf("%s: replay not bit-exact: digests %v, checksum %v, diverged %+v", name, out.DigestsMatch, out.ChecksumMatch, out.Diverged)
		}
		var teams int
		for _, built := range rec.teams {
			for i, team := range built[:len(built)-1] {
				teams++
				for rank, sp := range team {
					if n := len(sp.Regions()); n != 0 {
						t.Errorf("%s: team %d, rank %d: the dead space keeps %d regions", name, i, rank, n)
					}
				}
			}
		}
		if teams == 0 || teams > out.Injected.Failures {
			t.Errorf("%s: %d dead teams after %d failures", name, teams, out.Injected.Failures)
		}
	}
}

// recoveryEnd returns the FailureLog index of the last failure the
// recovery that absorbed failure i absorbed: the failures one recovery
// absorbs share its end.
func recoveryEnd(log []FailureEvent, i int) int {
	end := log[i].At + log[i].Downtime
	for i+1 < len(log) && log[i+1].At+log[i+1].Downtime == end {
		i++
	}
	return i
}

// firstRestore returns the FailureLog index of the first failure a
// recovery absorbed that restored a line, or -1.
func firstRestore(log []FailureEvent) int {
	for i, ev := range log {
		if ev.RestoredIter > 0 {
			return i
		}
	}
	return -1
}

// pageDropStore drops, from every segment of rank 1 read back, the page
// records of the lowest page its region table names: a restore that
// skips one page of a segment.
type pageDropStore struct{ storage.Store }

func (s pageDropStore) Get(key string) ([]byte, error) {
	data, err := s.Store.Get(key)
	var rank int
	if err != nil || !ckpt.ParseSegmentKey(key, &rank, nil) || rank != 1 {
		return data, err
	}
	seg, err := ckpt.DecodeSegment(data)
	if err != nil {
		return nil, err
	}
	kept := seg.Pages[:0]
	for _, p := range seg.Pages {
		if p.Addr != seg.Regions[0].Start {
			kept = append(kept, p)
		}
	}
	seg.Pages = kept
	return seg.Encode(), nil
}

// TestReplayTrailNamesASkippedPage: a restore that skips one page of
// rank 1's segments is named by the first recovery that restores a line
// — its failure, the iteration it resumed from and rank 1 — though the
// run completes.
func TestReplayTrailNamesASkippedPage(t *testing.T) {
	cfg := chaosBaseConfig(9)
	cfg.Faults = "crash every exp 3s"
	cfg.Store = pageDropStore{storage.NewMemStore()}
	out, err := ValidateReplay(cfg)
	if err != nil {
		t.Fatal(err)
	}
	log := out.Injected.FailureLog
	i := firstRestore(log)
	if i < 0 {
		t.Fatalf("no recovery restored a line after %d failures: the test proves nothing", len(log))
	}
	want := Divergence{Failure: recoveryEnd(log, i), Iter: log[i].RestoredIter, Rank: 1}
	if out.Diverged == nil || *out.Diverged != want || out.BitExact() {
		t.Errorf("diverged %+v (bit-exact %v), want %+v", out.Diverged, out.BitExact(), want)
	}
}

// TestReplayTrailNamesStaleBytes: a team that resumes with bytes no line
// held — stale bytes in a page of rank 2's first arena, written as the
// team is rebuilt, as an inheritance that did not clear its slab would
// leave — is named by its recovery: after a restore, and after a scratch
// restart, where the fresh state is the reference's at iteration 0.
func TestReplayTrailNamesStaleBytes(t *testing.T) {
	stale := func(world *mpi.World, build, _ int) {
		if build == 0 {
			return // the run's first team
		}
		sp := world.Rank(2).Space()
		for _, r := range sp.Regions() {
			if r.Kind() == mem.Mmap {
				if err := sp.Write(r.End()-8, bytes.Repeat([]byte{0xAA}, 8)); err != nil {
					panic(err)
				}
				return
			}
		}
	}
	restore := chaosBaseConfig(9)
	restore.Faults = "crash every exp 3s"
	scratch := chaosBaseConfig(3)
	scratch.Faults = "crash at 300ms..310ms"
	for name, cfg := range map[string]Config{"restore": restore, "scratch": scratch} {
		cfg.Workload = &spaceRecorder{Factory: cfg.withDefaults().Workload, plant: stale}
		out, err := ValidateReplay(cfg)
		if err != nil {
			t.Fatal(err)
		}
		log := out.Injected.FailureLog
		if len(log) == 0 {
			t.Fatalf("%s: no failure: the test proves nothing", name)
		}
		want := Divergence{Failure: recoveryEnd(log, 0), Iter: log[0].RestoredIter, Rank: 2}
		if name == "restore" && want.Iter == 0 || name == "scratch" && want.Iter != 0 {
			t.Fatalf("%s: the first recovery resumed from iteration %d", name, want.Iter)
		}
		if out.Diverged == nil || *out.Diverged != want {
			t.Errorf("%s: diverged %+v, want %+v", name, out.Diverged, want)
		}
	}
}

// TestReplayTrailJudgesEveryRecovery: the reference's trail holds its
// fresh state and every line's; the injected run's, one state per
// recovery, each at the iteration it resumed from. A memoised entry's
// trail costs a few words per rank and line: it is reported here.
func TestReplayTrailJudgesEveryRecovery(t *testing.T) {
	cfg := healStencilConfig(6)
	cfg.Faults = "crash at 2s..12s count 3 jitter 300ms"
	plan, err := cfg.plan(nil)
	if err != nil {
		t.Fatal(err)
	}
	ref, refTrail, err := reference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(refTrail) != ref.CommittedLines+1 || refTrail[0].iter != 0 {
		t.Fatalf("the reference's trail holds %d states, want its fresh state and %d lines", len(refTrail), ref.CommittedLines)
	}
	inj, injTrail, _, err := run(cfg, plan, nil, restoreTrail)
	if err != nil {
		t.Fatal(err)
	}
	recoveries := 0
	for i := 0; i < len(inj.FailureLog); i = recoveryEnd(inj.FailureLog, i) + 1 {
		if recoveries >= len(injTrail) {
			break
		}
		st := injTrail[recoveries]
		if st.failure != recoveryEnd(inj.FailureLog, i) || st.iter != inj.FailureLog[i].RestoredIter {
			t.Errorf("recovery %d: state of failure %d at iteration %d, want failure %d at %d",
				recoveries, st.failure, st.iter, recoveryEnd(inj.FailureLog, i), inj.FailureLog[i].RestoredIter)
		}
		recoveries++
	}
	if recoveries == 0 || len(injTrail) != recoveries {
		t.Fatalf("%d states for %d recoveries", len(injTrail), recoveries)
	}
	if d := refTrail.diverged(injTrail); d != nil {
		t.Errorf("diverged %+v", d)
	}
	bytes := int(unsafe.Sizeof(refTrail)) + len(refTrail)*int(unsafe.Sizeof(trailState{}))
	for _, st := range refTrail {
		bytes += 8 * cap(st.sums)
	}
	perLine := bytes / len(refTrail)
	t.Logf("memo entry: a %d-rank trail of %d states, %d bytes (%d per state)", cfg.Ranks, len(refTrail), bytes, perLine)
	if perLine > 96+32*cfg.Ranks {
		t.Errorf("a state costs %d bytes for %d ranks", perLine, cfg.Ranks)
	}
}
