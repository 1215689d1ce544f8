package mpi

import "repro/internal/des"

// Counted messages. On a world whose fabric loses nothing and whose
// transfer time does not depend on load — Bounce mode, no fault model — a
// size-only message whose sender waits for no completion and whose
// receive has no continuation has a closed-form effect: the sender
// counts it as it leaves, and CountedDelay later the receiver has landed
// it, copied it out of the bounce buffer and finished the receive. When
// nothing observes the receiver in between, the message needs no flight
// record and no event: its two ends can be booked by whatever schedules
// them (the workload runner holds them as des series). The caller owns the
// matching — the receiver must have no posted receive the message would
// have taken instead — and the entry points below panic on any other
// world rather than book something the message path would not have done.

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

// CountRecvs finishes k counted messages of bytes each into r at addr,
// now: what k matched, continuation-less receives into addr do at their
// copy end (bounceDeliver, flight.copied, finish) — the bounce copy
// counted, the bytes stored, the receive counted and the delivery hook
// called. addr must not be 0: a count-only receive finishes on landing,
// with no copy.
func (r *Rank) CountRecvs(addr, bytes uint64, k int) {
	r.world.mustCount()
	if addr == 0 {
		panic("mpi: counted receive without a destination")
	}
	r.stats.BounceCopyBytes += uint64(k) * bytes
	r.fill(addr, bytes, k)
	r.stats.Recvs += uint64(k)
	r.landed(bytes, k)
}
