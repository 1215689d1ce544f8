package mpi

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/des"
)

// TestCountedMatchesMessages: on a Bounce world, counting a ring's
// size-only messages (CountSends at the send, CountRecvs CountedDelay
// later) leaves every rank where the message path does — counters, the
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
					eng.Schedule(at+w.CountedDelay(bytes), func() { dst.CountRecvs(addr(k), bytes, 1) })
					eng.Schedule(at+w.CountedDelay(bytes), func() { dst.CountRecvs(addr(k+1), bytes, 1) })
				default:
					eng.Schedule(at, func() { src.CountSends(bytes, 1) })
					eng.Schedule(at+w.CountedDelay(bytes), func() { dst.CountRecvs(addr(k), bytes, 1) })
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
		w1.Rank(0).CountRecvs(addrs[0], bytes, 1)
	}
	wk.Rank(0).CountRecvs(addrs[1], bytes, 3)
	a, b := w1.Rank(0), wk.Rank(0)
	if a.Stats() != b.Stats() || a.Space().WrittenBytes() != b.Space().WrittenBytes() || a.Space().Digest(nil) != b.Space().Digest(nil) {
		t.Fatalf("three counted receives: %+v one at a time, %+v at once", a.Stats(), b.Stats())
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
			"CountRecvs":   func() { w.Rank(1).CountRecvs(4096, 64, 1) },
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
