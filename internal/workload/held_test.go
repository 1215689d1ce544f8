package workload

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/des"
	"repro/internal/mem"
	"repro/internal/mpi"
	"repro/internal/tracker"
)

// heldCases are small specs for the corners of a held sub-burst's closed
// form (app.sweep) the registry's models do not reach: one sub-burst
// sweeping its spans several times over, a dwell window at least as large
// as the spans (so no tick rewrites it), spike and AltShift iterations
// and a transient arena at a size where every sub-burst wraps, and bursts
// that overrun their period.
func heldCases() []Spec {
	wrap := tiny()
	wrap.Name, wrap.Sweeps, wrap.DwellMB, wrap.AltShiftMB = "tiny-wrap", 9, 1, 0.5
	dwell := tiny()
	dwell.Name, dwell.DwellMB, dwell.RateProfile = "tiny-dwell-covers", 4, []float64{1, 3}
	spike := tiny()
	spike.Name, spike.DwellMB, spike.RateProfile = "tiny-spike", 0.5, []float64{2, 1, 1}
	spike.SpikeEveryK, spike.SpikeExtraMB, spike.SpikeSweeps = 2, 1.5, 5
	dynamic := tiny()
	dynamic.Name, dynamic.Dynamic, dynamic.DwellMB, dynamic.Sweeps = "tiny-dynamic", true, 0.5, 6
	dynamic.Paper.MaxFootprintMB, dynamic.Paper.AvgFootprintMB = 10, 9
	return []Spec{wrap, dwell, spike, dynamic, overrunSpec()}
}

// overrunSpec's bursts are longer than the period less the jitter, so an
// iteration starts while the last one's sub-bursts still run, and its
// spike iterations sweep at another rate than the iterations around them.
func overrunSpec() Spec {
	s := tiny()
	s.Name, s.BurstFrac, s.DwellMB, s.RateProfile = "tiny-overrun", 0.999, 0.5, []float64{1, 2}
	s.SpikeEveryK, s.SpikeExtraMB, s.SpikeSweeps = 2, 1, 4
	return s
}

// TestOverrunKeepsEachSeriesParameters: when an iteration starts while the
// last one's sub-bursts still run, each series keeps sweeping at its own
// iteration's rate, though the sweep callbacks are bound once per rank.
// The pinned bytes are what a runner making fresh closures every
// iteration writes, with every rank handed out and with none; callbacks
// that read the next iteration's rate write more.
func TestOverrunKeepsEachSeriesParameters(t *testing.T) {
	const want = 195_346_779
	for _, handOut := range []int{4, 0} {
		r, err := New(overrunSpec(), Config{Ranks: 4, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < handOut; i++ {
			r.Space(i)
		}
		r.Run(r.durationFor(7))
		for i, s := range r.spaces {
			if s.WrittenBytes() != want {
				t.Errorf("%d ranks handed out: rank %d wrote %d bytes, want %d", handOut, i, s.WrittenBytes(), want)
			}
		}
	}
}

// TestHeldSweepsMatchTickByTick: holding sub-bursts changes how many
// events run, not what they write. For every spec at 4 ranks (the
// registry's and heldCases), a runner with every rank handed out at New
// and every sweep tick by tick (TickByTick) and one with only rank 0
// handed out (every sub-burst held; ranks 1-3 settled only when a Run
// returns, each unreleased sub-burst one closed-form step) agree on each
// space's written bytes, footprint and digest and each rank's sweep
// cursor after every Run window. Rank 2 is handed out mid-burst, after
// Steps to the same event in both runners: the dirty log opened on it
// then sees the same pages fault in both.
func TestHeldSweepsMatchTickByTick(t *testing.T) {
	const ranks = 4
	for _, spec := range append(All(), heldCases()...) {
		t.Run(spec.Name, func(t *testing.T) {
			build := func(handOut int) *Runner {
				r, err := New(spec, Config{Ranks: ranks, Seed: 7})
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < handOut; i++ {
					r.Space(i)
				}
				return r
			}
			restore := TickByTick()
			open := build(ranks)
			restore()
			held := build(1)
			runners := []*Runner{open, held}
			same := func(when string, all bool) {
				t.Helper()
				for i := 0; i < ranks; i++ {
					if !all && i != 0 && i != 2 {
						continue // still held mid-run
					}
					a, b := open.spaces[i], held.spaces[i]
					a.Digest(nil) // settles a handed-out rank, so its cursor is current
					b.Digest(nil)
					ca, cb := open.apps[i].cursor, held.apps[i].cursor
					if a.WrittenBytes() != b.WrittenBytes() || a.Footprint() != b.Footprint() || a.Digest(nil) != b.Digest(nil) || ca != cb {
						t.Fatalf("%s, rank %d: written/footprint/digest/cursor %d/%d/%x/%d tick by tick, %d/%d/%x/%d held",
							when, i, a.WrittenBytes(), a.Footprint(), a.Digest(nil), ca, b.WrittenBytes(), b.Footprint(), b.Digest(nil), cb)
					}
				}
			}
			period, burst := spec.PeriodAt(ranks), spec.BurstDuration(ranks)

			for _, r := range runners {
				r.Run(r.InitTail())
			}
			same("after init", true)
			for _, r := range runners {
				r.Run(r.initEstimate() + period/3)
			}
			same("a third into iteration 0", true)

			// Step both runners to the same event, half-way through the
			// next burst, and hand rank 2 out there.
			mark := open.Now() + period - period/3 + burst/2
			var logs []*mem.DirtyLog
			for _, r := range runners {
				marked := false
				r.Eng.Schedule(mark, func() { marked = true })
				for !marked && r.Eng.Step() {
				}
				log := mem.NewDirtyLog(r.Space(2))
				log.Open()
				logs = append(logs, log)
			}
			same("rank 2 handed out mid-burst", false)

			for w := 1; w <= 3; w++ {
				for _, r := range runners {
					r.Run(mark + des.Time(w)*period/2)
				}
				same(fmt.Sprintf("window %d after the hand-out", w), true)
				if a, b := logs[0], logs[1]; a.Count() != b.Count() || a.Faults() != b.Faults() {
					t.Fatalf("window %d: rank 2's log has %d pages, %d faults tick by tick; %d, %d held", w, a.Count(), a.Faults(), b.Count(), b.Faults())
				}
			}
			if logs[1].Faults() == 0 {
				t.Fatal("rank 2's log saw no writes after the hand-out: the check is vacuous")
			}
			if held.Eng.Fired() >= open.Eng.Fired() {
				t.Fatalf("held runner fired %d events, tick by tick %d: nothing was held", held.Eng.Fired(), open.Eng.Fired())
			}
		})
	}
}

// TestObservedSweepsMatchTickByTick: settling the held sub-bursts of
// observed ranks changes how many events run, not what any observer
// sees. For every spec at 4 ranks (the registry's and heldCases), with
// every rank handed out and tracked from iteration 0 at a 1 s and a 2 s
// timeslice, a runner whose sweeps tick one by one (TickByTick) and one
// whose trackers settle them at each alarm give every rank the same
// samples — IWS pages, faults, footprint, received bytes, overhead, all
// of a Sample — and the same fault totals, over three periods or twelve
// slices, whichever is longer. Two more cases per spec settle across
// sub-burst boundaries and mid-burst (below).
func TestObservedSweepsMatchTickByTick(t *testing.T) {
	const ranks = 4
	for _, spec := range append(All(), heldCases()...) {
		for _, ts := range []des.Time{des.Second, 2 * des.Second} {
			t.Run(fmt.Sprintf("%s/%v", spec.Name, ts), func(t *testing.T) {
				open, want := trackEveryRank(t, spec, ranks, ts, TickByTick)
				held, got := trackEveryRank(t, spec, ranks, ts, nil)
				if sameSamples(t, "tick by tick", want, got) == 0 {
					t.Fatal("no tracker saw a fault: the check is vacuous")
				}
				if held.Eng.Fired() >= open.Eng.Fired() {
					t.Fatalf("settled runner fired %d events, tick by tick %d: nothing was held", held.Eng.Fired(), open.Eng.Fired())
				}
			})
		}
		// A burst is one hold over all its sub-bursts, so a settle can
		// span sub-bursts of different rates: a dirty log reset every
		// sub-burst and a third makes every reset's settle cross a
		// boundary, and Run windows that end mid-burst settle part of a
		// burst between windows. What each rank's log and space count
		// at every reset and window end is what ticking one by one
		// counts.
		t.Run(spec.Name+"/log-reset-across-sub-bursts", func(t *testing.T) {
			subDur := spec.BurstDuration(ranks) / des.Time(len(spec.RateProfile))
			every := subDur + subDur/3
			run := func(ticks bool) ([]string, *Runner) {
				if ticks {
					defer TickByTick()()
				}
				r, err := New(spec, Config{Ranks: ranks, Seed: 7})
				if err != nil {
					t.Fatal(err)
				}
				logs := make([]*mem.DirtyLog, ranks)
				for i := range logs {
					logs[i] = mem.NewDirtyLog(r.Space(i))
				}
				if err := r.RunToIterZero(); err != nil {
					t.Fatal(err)
				}
				for _, l := range logs {
					l.Open()
				}
				var seen []string
				reset := r.Eng.NewTicker(every, func(at des.Time) {
					for i, l := range logs {
						seen = append(seen, fmt.Sprintf("%v rank %d: %d pages, %d faults, %d bytes written", at, i, l.Count(), l.Faults(), r.spaces[i].WrittenBytes()))
						l.Reset()
					}
				})
				r.Run(r.Now() + 3*spec.PeriodAt(ranks))
				reset.Stop()
				var faults uint64
				for _, l := range logs {
					faults += l.Faults()
				}
				if faults == 0 {
					t.Fatal("no log saw a fault: the check is vacuous")
				}
				return seen, r
			}
			want, open := run(true)
			got, held := run(false)
			sameLines(t, want, got)
			if held.Eng.Fired() >= open.Eng.Fired() {
				t.Fatalf("settled runner fired %d events, tick by tick %d: nothing was held", held.Eng.Fired(), open.Eng.Fired())
			}
		})
		t.Run(spec.Name+"/run-ends-mid-burst", func(t *testing.T) {
			period, burst := spec.PeriodAt(ranks), spec.BurstDuration(ranks)
			run := func(ticks bool) []string {
				if ticks {
					defer TickByTick()()
				}
				r, err := New(spec, Config{Ranks: ranks, Seed: 7})
				if err != nil {
					t.Fatal(err)
				}
				trs := make([]*tracker.Tracker, ranks)
				for i := range trs {
					if trs[i], err = tracker.New(r.Eng, r.Space(i), tracker.Options{Timeslice: des.Second}); err != nil {
						t.Fatal(err)
					}
				}
				if err := r.RunToIterZero(); err != nil {
					t.Fatal(err)
				}
				for _, tr := range trs {
					tr.Start()
				}
				var seen []string
				for k := range 4 {
					end := r.IterZero() + des.Time(k)*period + burst*des.Time(2*k+1)/9
					r.Run(end)
					for i, tr := range trs {
						seen = append(seen, fmt.Sprintf("window %d rank %d: %d faults, %d bytes written, %d samples", k, i, tr.TotalFaults(), r.spaces[i].WrittenBytes(), len(tr.Samples())))
					}
				}
				for i, tr := range trs {
					for j, sm := range tr.Samples() {
						seen = append(seen, fmt.Sprintf("rank %d sample %d: %+v", i, j, sm))
					}
				}
				return seen
			}
			sameLines(t, run(true), run(false))
		})
	}
}

// trackEveryRank builds spec at the given ranks, under seam (a test seam's
// setter, or nil for none), hands every rank out to a tracker at
// timeslice ts that also counts the rank's deliveries (AttachRank), and
// runs from iteration 0 for three periods or twelve slices, whichever is
// longer.
func trackEveryRank(t *testing.T, spec Spec, ranks int, ts des.Time, seam func() (restore func())) (*Runner, []*tracker.Tracker) {
	t.Helper()
	if seam != nil {
		defer seam()()
	}
	r, err := New(spec, Config{Ranks: ranks, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	trs := make([]*tracker.Tracker, ranks)
	for i := range trs {
		if trs[i], err = tracker.New(r.Eng, r.Space(i), tracker.Options{Timeslice: ts}); err != nil {
			t.Fatal(err)
		}
		trs[i].AttachRank(r.World, i)
	}
	if err := r.RunToIterZero(); err != nil {
		t.Fatal(err)
	}
	for _, tr := range trs {
		tr.Start()
	}
	r.Run(r.Now() + max(3*spec.PeriodAt(ranks), 12*ts))
	return r, trs
}

// sameSamples fails t unless each rank's tracker in got took the samples
// and the faults its reference in want (the ref seam's run) took, and
// returns the faults got's trackers took.
func sameSamples(t *testing.T, ref string, want, got []*tracker.Tracker) (faults uint64) {
	t.Helper()
	for i := range want {
		a, b := want[i].Samples(), got[i].Samples()
		if len(a) == 0 || !slices.Equal(a, b) {
			for j := range min(len(a), len(b)) {
				if a[j] != b[j] {
					t.Fatalf("rank %d sample %d: %s %+v, held %+v", i, j, ref, a[j], b[j])
				}
			}
			t.Fatalf("rank %d: %d samples %s, %d held", i, len(a), ref, len(b))
		}
		if want[i].TotalFaults() != got[i].TotalFaults() {
			t.Fatalf("rank %d: %d faults %s, %d held", i, want[i].TotalFaults(), ref, got[i].TotalFaults())
		}
		faults += got[i].TotalFaults()
	}
	return faults
}

// sameLines fails t at the first line where got differs from want, the
// tick-by-tick reference.
func sameLines(t *testing.T, want, got []string) {
	t.Helper()
	for i := range min(len(want), len(got)) {
		if want[i] != got[i] {
			t.Fatalf("tick by tick %s\nsettled      %s", want[i], got[i])
		}
	}
	if len(want) != len(got) {
		t.Fatalf("%d observations tick by tick, %d settled", len(want), len(got))
	}
}

// TestHeldMessagesMatchMessageByMessage: counting the ring links
// (holdLink) changes how many events run, not what any rank counts or
// writes. For every spec at 4 ranks (the registry's and heldCases), a
// runner that sends every message through the message path
// (MessageByMessage: a send, a NIC landing and a copy end each), every
// rank handed out at New, and one that counts every link, its ranks
// handed out late, agree on every handed rank's mpi.Stats, written
// bytes, footprint and digest at each hand-out (its space read first,
// which settles it), and on every rank's after each Run window:
//   - ranks 0 and 1 are handed out when RunToIterZero returns, after
//     every rank's startIteration of iteration 0 (as AdaptiveAlignment
//     hands rank 0 out): the links into and out of both are already
//     held, and the hand-out settles them;
//   - a Run window ends between the first message's landing and the end
//     of its copy out of the bounce buffer;
//   - rank 2 is handed out mid-clump, after Steps to the same event in
//     both runners, with a message landed but not yet copied;
//   - a later window covers whole iterations, rank 3 never handed out.
func TestHeldMessagesMatchMessageByMessage(t *testing.T) {
	const ranks = 4
	for _, spec := range append(All(), heldCases()...) {
		t.Run(spec.Name, func(t *testing.T) {
			if spec.CommMB == 0 {
				t.Skip("no messages")
			}
			build := func(handOut int) *Runner {
				r, err := New(spec, Config{Ranks: ranks, Seed: 7})
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < handOut; i++ {
					r.Space(i)
				}
				return r
			}
			restore := MessageByMessage()
			open := build(ranks)
			restore()
			held := build(0)
			runners := []*Runner{open, held}
			same := func(when string, handed int) {
				t.Helper()
				for i := 0; i < handed; i++ {
					a, b := open.World.Rank(i), held.World.Rank(i)
					sa, sb := open.spaces[i], held.spaces[i]
					da, db := sa.Digest(nil), sb.Digest(nil) // settles a handed-out rank's deposits
					if a.Stats() != b.Stats() || sa.WrittenBytes() != sb.WrittenBytes() || sa.Footprint() != sb.Footprint() || da != db {
						t.Fatalf("%s, rank %d: message by message %+v, written/footprint/digest %d/%d/%x; held %+v, %d/%d/%x",
							when, i, a.Stats(), sa.WrittenBytes(), sa.Footprint(), da, b.Stats(), sb.WrittenBytes(), sb.Footprint(), db)
					}
				}
			}
			for _, r := range runners {
				if err := r.RunToIterZero(); err != nil {
					t.Fatal(err)
				}
			}
			if open.IterZero() != held.IterZero() {
				t.Fatalf("iteration 0 starts at %v message by message, %v held", open.IterZero(), held.IterZero())
			}
			held.Space(0)
			held.Space(1)
			same("ranks 0 and 1 handed out at iteration 0", ranks)

			net := mpi.QsNet()
			msg := uint64(spec.CommMsgKB * 1024)
			sendAt := sendOffsets(spec, ranks, open.apps[0].nMsgs)
			midCopy := func(k int) des.Time {
				return open.IterZero() + sendAt[k] + net.TransferTime(msg) + net.CopyTime(msg)/2
			}
			for _, r := range runners {
				r.Run(midCopy(0))
			}
			same("a window ending mid-copy", ranks)
			if st := open.World.Rank(1).Stats(); st.Recvs != 0 || st.BounceCopyBytes != 0 {
				t.Fatalf("rank 1 finished %d receives by the window's end: it does not end mid-copy", st.Recvs)
			}

			// Step both runners to the same event, with message n/2 of
			// iteration 0 landed and not yet copied, and hand rank 2 out.
			mark := max(midCopy(len(sendAt)/2), open.Now()+1)
			for _, r := range runners {
				marked := false
				r.Eng.Schedule(mark, func() { marked = true })
				for !marked && r.Eng.Step() {
				}
				r.Space(2)
			}
			same("rank 2 handed out mid-clump", 3)

			// The first window ends mid-clump too; the second holds whole
			// iterations, whose deposits into rank 3 are one event each.
			period := spec.PeriodAt(ranks)
			for w, end := range []des.Time{mark + period, mark + 7*period/2} {
				for _, r := range runners {
					r.Run(end)
				}
				same(fmt.Sprintf("window %d after the hand-out", w+1), ranks)
			}
			if st := held.World.Rank(3).Stats(); st.Recvs == 0 {
				t.Fatal("rank 3 received nothing: the check is vacuous")
			}
			if held.Eng.Fired() >= open.Eng.Fired() {
				t.Fatalf("held runner fired %d events, message by message %d: nothing was held", held.Eng.Fired(), open.Eng.Fired())
			}
		})
	}
}

// TestObservedMessagesMatchMessageByMessage: counting the ring links into
// observed ranks, and settling their deposits whenever an observer reads,
// changes how many events run, not what any observer sees. For every spec
// at 4 ranks (the registry's and heldCases), with every rank handed out
// and tracked from iteration 0 at a 1 s and a 2 s timeslice, its
// deliveries counted (AttachRank), a runner sending every message through
// the message path (MessageByMessage) and one counting every link give
// every rank the same samples — received bytes, faults, IWS bytes, all of
// a Sample — the same fault totals, and the same mpi.Stats, written bytes
// and digest, over three periods or twelve slices, whichever is longer;
// the counted runner fires fewer events. TestProtectCountedMatchesMessageByMessage
// is the core.Protect case.
func TestObservedMessagesMatchMessageByMessage(t *testing.T) {
	const ranks = 4
	for _, spec := range append(All(), heldCases()...) {
		for _, ts := range []des.Time{des.Second, 2 * des.Second} {
			t.Run(fmt.Sprintf("%s/%v", spec.Name, ts), func(t *testing.T) {
				if spec.CommMB == 0 {
					t.Skip("no messages")
				}
				open, want := trackEveryRank(t, spec, ranks, ts, MessageByMessage)
				counted, got := trackEveryRank(t, spec, ranks, ts, nil)
				sameSamples(t, "message by message", want, got)
				var recv uint64
				for i := range want {
					ra, rb := open.World.Rank(i), counted.World.Rank(i)
					sa, sb := open.spaces[i], counted.spaces[i]
					if ra.Stats() != rb.Stats() || sa.WrittenBytes() != sb.WrittenBytes() || sa.Digest(nil) != sb.Digest(nil) {
						t.Fatalf("rank %d: message by message %+v, %d B written, digest %x; counted %+v, %d B, %x",
							i, ra.Stats(), sa.WrittenBytes(), sa.Digest(nil), rb.Stats(), sb.WrittenBytes(), sb.Digest(nil))
					}
					for _, sm := range got[i].Samples() {
						recv += sm.RecvBytes
					}
				}
				if recv == 0 {
					t.Fatal("no sample counted a received byte: the check is vacuous")
				}
				if counted.Eng.Fired() >= open.Eng.Fired() {
					t.Fatalf("counted runner fired %d events, message by message %d: nothing was held", counted.Eng.Fired(), open.Eng.Fired())
				}
			})
		}
	}
}

// TestSideDoorProtectionPanics: a rank's sweeps run held, settled only
// through the hook Runner.Space installs when it hands the space out, so a
// dirty log opened through the World's side door would miss the ticks it
// was opened for. The first held tick to find a write fault on the space
// panics instead.
func TestSideDoorProtectionPanics(t *testing.T) {
	r, err := New(tiny(), Config{Ranks: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	mem.NewDirtyLog(r.World.Rank(1).Space()).Open()
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "rank 1") || !strings.Contains(msg, "never handed out") {
			t.Fatalf("recovered %q, want the side-door panic for rank 1", msg)
		}
	}()
	r.Run(r.durationFor(2))
}

// TestHeldDepositChecksItsPreconditions: a deposit hold is one
// iteration's messages, so a run of deposits (depositHeld) never goes past
// the iteration's last message; one that would panics rather than land
// messages in the slots of an iteration that has not begun.
func TestHeldDepositChecksItsPreconditions(t *testing.T) {
	for name, spoil := range map[string]func(a *app) int{
		"mid-stream":          func(a *app) int { a.deposited = 1; return a.nMsgs },
		"past the iteration":  func(a *app) int { return a.nMsgs + 1 },
		"past the next start": func(a *app) int { a.deposited = 2*a.nMsgs - 1; return 2 },
	} {
		r, err := New(tiny(), Config{Ranks: 2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		a := r.apps[1]
		runs := spoil(a)
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "held deposit") {
					t.Errorf("%s: recovered %q, want the held-deposit panic", name, msg)
				}
			}()
			a.depositHeld(runs)
		}()
	}
}
