package mpi

import (
	"fmt"

	"repro/internal/des"
)

// Counted messages. On a world whose fabric loses nothing and whose
// transfer time does not depend on load — Bounce mode, no fault model — a
// size-only message whose sender waits for no completion and whose
// receive has no continuation has a closed-form effect: the sender
// counts it as it leaves, and CountedDelay later the receiver has landed
// it, copied it out of the bounce buffer and finished the receive. Its
// visible effects are the two ranks' counters, the bytes stored into the
// receiver's space and the receiver's delivery hook, so it needs no
// flight record and no event: its two ends can be booked by whatever
// schedules them, in runs (the workload runner holds both as des series
// on every ring link, and settles a receiver's held deposits before
// anything reads its space). A run of receives into a ring strip is one
// store per lap of the strip (CountRecvs). The caller owns the matching —
// the receiver must have no posted receive the message would have taken
// instead — and the entry points below panic on any other world rather
// than book something the message path would not have done.

// mustCount panics unless counted messages are exact on w.
func (w *World) mustCount() {
	if w.mode != Bounce || w.faults != nil {
		panic("mpi: counted messages need a loss-free Bounce world")
	}
}

// CountedDelay returns how long after its send a counted message of the
// given size is received: its transfer, then the copy out of the bounce
// buffer.
func (w *World) CountedDelay(bytes uint64) des.Time {
	w.mustCount()
	return w.net.transfer(bytes) + w.net.copyTime(bytes)
}

// CountSends books runs size-only sends of bytes each from r: what runs
// Send calls without a completion add to r's counters.
func (r *Rank) CountSends(bytes uint64, runs int) {
	r.world.mustCount()
	r.stats.Sends += uint64(runs)
	r.stats.BytesSent += uint64(runs) * bytes
}

// CountRecvs finishes k counted messages of bytes each into r, now: what
// k matched, continuation-less receives do at their copy end
// (bounceDeliver, flight.copied, finish) — the bounce copy counted, the
// bytes stored, the receive counted and the delivery hook called, once
// per message. The messages land in consecutive slots of a ring strip
// at addr: slot s is addr + s*bytes, the first message's slot is first,
// and each next one's the slot after, wrapping past slots-1 to 0. addr
// must not be 0: a count-only receive finishes on landing, with no copy.
func (r *Rank) CountRecvs(addr, bytes uint64, slots, first, k int) {
	r.world.mustCount()
	if addr == 0 {
		panic("mpi: counted receive without a destination")
	}
	if slots < 1 || first < 0 || first >= slots || k < 0 {
		panic(fmt.Sprintf("mpi: counted receive of %d messages from slot %d of %d", k, first, slots))
	}
	r.stats.BounceCopyBytes += uint64(k) * bytes
	r.fillStrip(addr, bytes, slots, first, k)
	r.stats.Recvs += uint64(k)
	r.landed(bytes, k)
}

// fillStrip stores k messages of n bytes into the strip at addr, message
// i into slot (first+i) mod slots. On a phantom space whose strip lies in
// one region a run of consecutive slots is one store: at most a partial
// first lap, the full laps as one store of the whole strip repeated, and
// a partial last lap. That is exact however the space is armed: it
// writes the bytes the k stores write, and the same pages, and which
// pages fault does not depend on the order of the writes. A backed
// space's contents do (each store takes its own fill value), and a strip
// that leaves its region is clamped slot by slot, so either takes one
// store per message, in order.
func (r *Rank) fillStrip(addr, n uint64, slots, first, k int) {
	width := uint64(slots) * n
	if reg := r.space.Find(addr); !r.space.Phantom() || reg == nil || width > reg.End()-addr {
		for i := range k {
			r.fill(addr+uint64((first+i)%slots)*n, n, 1)
		}
		return
	}
	// Each store lies inside reg, so none can fail.
	head := min(k, slots-first)
	_ = r.space.RewriteRange(addr+uint64(first)*n, uint64(head)*n, 1)
	k -= head
	_ = r.space.RewriteRange(addr, width, uint64(k/slots))
	_ = r.space.RewriteRange(addr, uint64(k%slots)*n, 1)
}
