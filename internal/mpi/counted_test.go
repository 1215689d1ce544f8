package mpi

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/des"
	"repro/internal/mem"
)

// TestCountedMatchesMessages: on a Bounce world, counting a ring's
// size-only messages (CountSends at the send, CountRecvs into the
// receiver's strip CountedDelay later) leaves every rank where the
// message path does — counters, the
// delivery hook's calls and times, written bytes, contents and the faults
// an open dirty log takes — at every instant, a message between its
// landing and its copy end included. CountRecvs of k messages is k calls
// of one.
func TestCountedMatchesMessages(t *testing.T) {
	const ranks, msgs, bytes, slots = 3, 12, 6000, 5
	type hook struct {
		bytes uint64
		at    des.Time
	}
	type side struct {
		eng   *des.Engine
		w     *World
		bufs  []uint64
		hooks [][]hook
		log   *int
	}
	build := func(counted bool) *side {
		eng, w := testWorld(t, ranks, Bounce)
		sd := &side{eng: eng, w: w, hooks: make([][]hook, ranks), log: new(int)}
		for i := 0; i < ranks; i++ {
			buf, err := w.Rank(i).Space().Mmap(slots * bytes)
			if err != nil {
				t.Fatal(err)
			}
			sd.bufs = append(sd.bufs, buf.Start())
			w.Rank(i).SetDeliveryHook(func(b uint64, at des.Time) { sd.hooks[i] = append(sd.hooks[i], hook{b, at}) })
		}
		openLog(w, 1, sd.log)
		for i := 0; i < ranks; i++ {
			src, dst := w.Rank(i), w.Rank((i+1)%ranks)
			addr := func(k int) uint64 { return sd.bufs[dst.id] + uint64(k%slots)*bytes }
			for k := 0; k < msgs; k++ {
				at := des.Time(1+k/4) * des.Millisecond // clumps of four
				switch {
				case !counted:
					dst.Recv(AnySource, 0, addr(k), nil)
					eng.Schedule(at, func() { src.Send(dst.id, 0, bytes, nil) })
				case k == msgs-1:
					// The last clump's tail: two messages into one slot at once.
				case k == msgs-2:
					eng.Schedule(at, func() { src.CountSends(bytes, 2) })
					eng.Schedule(at+w.CountedDelay(bytes), func() { dst.CountRecvs(sd.bufs[dst.id], bytes, slots, k%slots, 1) })
					eng.Schedule(at+w.CountedDelay(bytes), func() { dst.CountRecvs(sd.bufs[dst.id], bytes, slots, (k+1)%slots, 1) })
				default:
					eng.Schedule(at, func() { src.CountSends(bytes, 1) })
					eng.Schedule(at+w.CountedDelay(bytes), func() { dst.CountRecvs(sd.bufs[dst.id], bytes, slots, k%slots, 1) })
				}
			}
		}
		return sd
	}
	msg, cnt := build(false), build(true)
	net := QsNet()
	landed := des.Millisecond + net.TransferTime(bytes) + net.CopyTime(bytes)/2
	for _, until := range []des.Time{des.Millisecond / 2, landed, 2 * des.Millisecond, des.MaxTime} {
		msg.eng.Run(until)
		cnt.eng.Run(until)
		for i := 0; i < ranks; i++ {
			a, b := msg.w.Rank(i), cnt.w.Rank(i)
			if a.Stats() != b.Stats() || a.Space().WrittenBytes() != b.Space().WrittenBytes() || a.Space().Digest(nil) != b.Space().Digest(nil) {
				t.Fatalf("until %v, rank %d: messages %+v, %d B written; counted %+v, %d B", until, i, a.Stats(), a.Space().WrittenBytes(), b.Stats(), b.Space().WrittenBytes())
			}
			if !slices.Equal(msg.hooks[i], cnt.hooks[i]) {
				t.Fatalf("until %v, rank %d: delivery hook calls %v by message, %v counted", until, i, msg.hooks[i], cnt.hooks[i])
			}
		}
		if *msg.log != *cnt.log {
			t.Fatalf("until %v: rank 1's log took %d faults by message, %d counted", until, *msg.log, *cnt.log)
		}
	}
	if st := msg.w.Rank(1).Stats(); st.Recvs != msgs || *msg.log == 0 {
		t.Fatalf("rank 1 finished %d receives and took %d faults: the check is vacuous", st.Recvs, *msg.log)
	}

	// k at once is k calls of one.
	_, w1 := testWorld(t, 1, Bounce)
	_, wk := testWorld(t, 1, Bounce)
	var addrs []uint64
	for _, w := range []*World{w1, wk} {
		buf, err := w.Rank(0).Space().Mmap(bytes)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, buf.Start())
	}
	for k := 0; k < 3; k++ {
		w1.Rank(0).CountRecvs(addrs[0], bytes, 1, 0, 1)
	}
	wk.Rank(0).CountRecvs(addrs[1], bytes, 1, 0, 3)
	a, b := w1.Rank(0), wk.Rank(0)
	if a.Stats() != b.Stats() || a.Space().WrittenBytes() != b.Space().WrittenBytes() || a.Space().Digest(nil) != b.Space().Digest(nil) {
		t.Fatalf("three counted receives: %+v one at a time, %+v at once", a.Stats(), b.Stats())
	}
}

// TestCountedStripRunMatchesSingleReceives: on a phantom space a run of
// counted receives into a ring strip is one store per lap of the strip
// (fillStrip), not one per message. On an armed space it leaves the rank
// where the same messages received one at a time, slot by slot, leave
// it: counters, written bytes, the faults the space and an open dirty log
// take, and the delivery hook's calls. Runs start at the strip's first
// slot and mid-strip, stay in one lap, wrap once, wrap several times and
// end mid-lap; messages straddle page boundaries. A strip that overhangs
// its region is clamped slot by slot, as single receives are.
func TestCountedStripRunMatchesSingleReceives(t *testing.T) {
	const bytes, slots, page = 6000, 7, 4096
	type side struct {
		r             *Rank
		strip         uint64
		faults, hooks *int
	}
	build := func(overhang bool) side {
		space := mem.NewAddressSpace(mem.Config{PageSize: page, Phantom: true})
		w, err := NewWorld(des.NewEngine(), QsNet(), Bounce, []*mem.AddressSpace{space})
		if err != nil {
			t.Fatal(err)
		}
		buf, err := space.Mmap(slots*bytes + 2*page)
		if err != nil {
			t.Fatal(err)
		}
		sd := side{r: w.Rank(0), strip: buf.Start() + 1000, faults: new(int), hooks: new(int)}
		if overhang {
			sd.strip = buf.End() - 5*bytes/2
		}
		sd.r.SetDeliveryHook(func(uint64, des.Time) { *sd.hooks++ })
		openLog(w, 0, sd.faults)
		return sd
	}
	for _, c := range []struct {
		first, k int
		overhang bool
	}{
		{0, 1, false}, {3, 2, false}, {0, slots, false}, {3, 4, false}, {5, slots, false},
		{2, 3*slots + 4, false}, {6, 30, false}, {0, 2 * slots, false}, {4, 0, false},
		{1, 2*slots + 3, true},
	} {
		one, run := build(c.overhang), build(c.overhang)
		for i := range c.k {
			one.r.CountRecvs(one.strip+uint64((c.first+i)%slots)*bytes, bytes, 1, 0, 1)
		}
		run.r.CountRecvs(run.strip, bytes, slots, c.first, c.k)
		a, b := one.r, run.r
		if a.Stats() != b.Stats() || a.Space().WrittenBytes() != b.Space().WrittenBytes() || a.Space().Faults() != b.Space().Faults() ||
			*one.faults != *run.faults || *one.hooks != *run.hooks {
			t.Fatalf("%+v: one at a time %+v, %d B written, %d/%d faults, %d hook calls; as a run %+v, %d B, %d/%d faults, %d calls",
				c, a.Stats(), a.Space().WrittenBytes(), a.Space().Faults(), *one.faults, *one.hooks,
				b.Stats(), b.Space().WrittenBytes(), b.Space().Faults(), *run.faults, *run.hooks)
		}
		if c.k > 0 && *run.faults == 0 {
			t.Fatalf("%+v: the strip took no fault: the check is vacuous", c)
		}
	}
}

// TestCountedPanicsOffTheExactWorld: a fault model and Direct mode (the
// registered-memory NIC) each make a message's effect depend on more than
// its size and send time, so every counted entry point refuses them.
func TestCountedPanicsOffTheExactWorld(t *testing.T) {
	_, faulty := testWorld(t, 2, Bounce)
	if err := faulty.SetFaults(NetFaultConfig{Seed: 1, DropRate: 0.1}); err != nil {
		t.Fatal(err)
	}
	_, direct := testWorld(t, 2, Direct)
	for name, w := range map[string]*World{"faults": faulty, "Direct": direct} {
		for call, fn := range map[string]func(){
			"CountedDelay": func() { w.CountedDelay(64) },
			"CountSends":   func() { w.Rank(0).CountSends(64, 1) },
			"CountRecvs":   func() { w.Rank(1).CountRecvs(4096, 64, 1, 0, 1) },
		} {
			func() {
				defer func() {
					if msg, _ := recover().(string); !strings.Contains(msg, "counted messages") {
						t.Errorf("%s on a %s world: recovered %q, want the counted-message panic", call, name, msg)
					}
				}()
				fn()
			}()
		}
	}
}
