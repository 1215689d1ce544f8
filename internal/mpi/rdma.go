package mpi

// RDMA registered memory and checkpoint-time drain: the NIC model of a
// Direct world, the production alternative to the paper's bounce-buffer
// workaround. An RDMA-capable NIC writes only into memory the
// application has *registered* (pinned and mapped into the NIC's
// translation table, at real per-page cost). Registered-region
// deliveries are zero-copy and take no write faults — which is exactly
// the §4.2 conflict: a write-protection tracker never sees them, so the
// incremental write set silently under-counts. Here the under-count is
// first-class: Direct deliveries into protected pages land via
// mem.WriteDirect, which marks them silent-dirty, and
// Stats.SilentDirtyBytes/DirectBypassBytes make the bypass observable.
//
// Checkpointing safely therefore requires a drain protocol (Cao et
// al.): quiesce new traffic, wait for in-flight messages to land,
// deregister (handing the NIC's pages back to the MMU tracker via
// mem.ReplaySilent), checkpoint, re-register, reconnect. This file
// provides the mechanisms — registration bookkeeping, in-flight
// delivery tracking, AwaitDrain, bounce-mode degradation — while the
// autonomic supervisor drives the phase state machine.

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/mem"
)

// DrainPhase names one phase of the checkpoint-time drain protocol.
type DrainPhase uint8

const (
	// PhaseQuiesce stops injecting new RDMA traffic.
	PhaseQuiesce DrainPhase = iota
	// PhaseDrainInFlight waits for every in-flight delivery to land.
	PhaseDrainInFlight
	// PhaseDeregister tears down NIC registrations and reconciles
	// silent-dirty pages into the tracker.
	PhaseDeregister
	// PhaseCheckpoint commits the global checkpoint line.
	PhaseCheckpoint
	// PhaseReregister re-pins the regions with the NIC.
	PhaseReregister
	// PhaseReconnect re-establishes transport connections.
	PhaseReconnect

	// NumDrainPhases is the number of drain-protocol phases.
	NumDrainPhases = int(PhaseReconnect) + 1
)

var drainPhaseNames = [NumDrainPhases]string{
	"quiesce", "drain", "deregister", "checkpoint", "reregister", "reconnect",
}

func (p DrainPhase) String() string {
	if int(p) < len(drainPhaseNames) {
		return drainPhaseNames[p]
	}
	return fmt.Sprintf("DrainPhase(%d)", uint8(p))
}

// ParseDrainPhase maps a phase token (as used by the chaos DSL) to its
// DrainPhase.
func ParseDrainPhase(s string) (DrainPhase, error) {
	for i, name := range drainPhaseNames {
		if s == name {
			return DrainPhase(i), nil
		}
	}
	return 0, fmt.Errorf("mpi: unknown drain phase %q", s)
}

// Costs of the registered-memory model.
const (
	// registerBase is the fixed cost of one register/deregister call,
	// registerPerPage the per-page pinning/translation cost on top.
	registerBase    = 10 * des.Microsecond
	registerPerPage = 300 * des.Nanosecond
	// RDMAQuiesceDelay is the time for all ranks to stop injecting
	// traffic.
	RDMAQuiesceDelay = 5 * des.Microsecond
	// drainPoll is the interval at which AwaitDrain re-checks the
	// in-flight counters.
	drainPoll = 10 * des.Microsecond
	// RDMAReconnectLatency is the cost of re-establishing transport
	// connections after re-registration.
	RDMAReconnectLatency = 100 * des.Microsecond
)

// rdmaState is a Direct world's in-flight bookkeeping, made by NewWorld.
type rdmaState struct {
	inflight []int // scheduled-but-unlanded deliveries, by destination rank
	total    int
}

// RegisterCost returns the des-clock cost of registering (or
// deregistering) a region of the given page count; zero in a Bounce
// world, whose NIC registers nothing.
func (w *World) RegisterCost(pages uint64) des.Time {
	if w.rdma == nil {
		return 0
	}
	return registerBase + des.Time(pages)*registerPerPage
}

// RegisterMemory pins reg with the NIC so deliveries into it are
// zero-copy in a Direct world, until DeregisterAll. The caller accounts
// the registration latency via World.RegisterCost.
func (r *Rank) RegisterMemory(reg *mem.Region) {
	r.registered = append(r.registered, reg)
	r.stats.RegisteredBytes += reg.Size()
}

// RegisterAllData registers every checkpointable region of the rank's
// address space (the bounce arena and stack stay unregistered), in
// address order. Returns the total registered pages.
func (r *Rank) RegisterAllData() (pages uint64) {
	for _, reg := range r.space.Regions() {
		if !reg.Kind().Checkpointable() {
			continue
		}
		r.RegisterMemory(reg)
		pages += reg.Pages()
	}
	return pages
}

// DeregisterAll tears down every registration and reconciles the pages
// the NIC wrote behind the tracker's back: each silent-dirty page is
// replayed as a write fault to the open dirty logs (mem.ReplaySilent),
// so the tracker and checkpointer see it before the checkpoint is cut.
// Returns the deregistered page count and the number of silent pages
// replayed.
func (r *Rank) DeregisterAll() (pages, replayed uint64) {
	for _, reg := range r.registered {
		pages += reg.Pages()
		r.stats.RegisteredBytes -= reg.Size()
	}
	r.registered = nil
	replayed = r.space.ReplaySilent()
	return pages, replayed
}

// DegradeToBounce permanently switches the rank to bounce-buffer
// delivery (the paper's workaround): the drain protocol invokes it when
// a rank's in-flight traffic refuses to drain within the timeout, so
// the checkpoint can proceed without a torn region. Sticky for the
// process lifetime — a restarted incarnation starts clean.
func (r *Rank) DegradeToBounce() { r.degraded = true }

// Degraded reports whether the rank has fallen back to bounce mode.
func (r *Rank) Degraded() bool { return r.degraded }

// registeredSpan reports whether [addr, addr+n) lies wholly inside one
// of the rank's registered regions.
func (r *Rank) registeredSpan(addr, n uint64) bool {
	for _, reg := range r.registered {
		if addr >= reg.Start() && addr+n <= reg.End() {
			return true
		}
	}
	return false
}

// trackDelivery records one scheduled delivery event bound for rank
// dst; untrackDelivery balances it when the event lands at the NIC.
func (w *World) trackDelivery(dst int) {
	if w.rdma == nil {
		return
	}
	w.rdma.inflight[dst]++
	w.rdma.total++
}

func (w *World) untrackDelivery(dst int) {
	if w.rdma == nil {
		return
	}
	w.rdma.inflight[dst]--
	w.rdma.total--
}

// strandedRanks lists destination ranks with in-flight deliveries, in
// ascending rank order.
func (w *World) strandedRanks() []int {
	var out []int
	for i, n := range w.rdma.inflight {
		if n > 0 {
			out = append(out, i)
		}
	}
	return out
}

// AwaitDrain polls the in-flight counters every drainPoll until they
// reach zero, then calls fn(nil). If timeout > 0 and the counters are
// still nonzero once the polls have consumed it, fn receives the list
// of stranded destination ranks instead — the drain protocol degrades
// those ranks to bounce mode rather than checkpointing a torn region.
func (w *World) AwaitDrain(timeout des.Time, fn func(stranded []int)) {
	if w.rdma == nil {
		panic("mpi: AwaitDrain on a Bounce world")
	}
	start := w.eng.Now()
	var poll func()
	poll = func() {
		if w.rdma.total == 0 {
			fn(nil)
			return
		}
		if timeout > 0 && w.eng.Now()-start >= timeout {
			fn(w.strandedRanks())
			return
		}
		w.eng.After(drainPoll, poll)
	}
	poll()
}

// Put performs a one-sided RDMA write: data lands at destAddr in rank
// dst's address space when the transfer arrives, with no matching Recv
// — the defining property of one-sided operations, and the reason they
// are invisible to receive-side interception. It is a message whose
// receive is preset: it rides the same injection (the exactly-once ARQ
// schedule under an installed fault model) and lands the same way — by
// DMA into a registered destination of a Direct world, via the bounce
// arena otherwise. A landed put counts in BytesReceived and calls the
// delivery hook, but is no Recv. onComplete (optional) runs at the
// sender's completion (local ack).
func (r *Rank) Put(dst int, destAddr uint64, data []byte, onComplete func()) {
	if dst < 0 || dst >= len(r.world.ranks) {
		panic(fmt.Sprintf("mpi: put to invalid rank %d", dst))
	}
	n := uint64(len(data))
	r.stats.Puts++
	r.stats.BytesSent += n
	msg := Message{Src: r.id, Dst: dst, Bytes: n, Payload: data, SentAt: r.world.eng.Now()}
	f := r.inject(msg, onComplete)
	f.put, f.recv.addr = true, destAddr
}

// dmaStore lands payload at addr with DMA semantics: zero-copy, no
// write faults, protected pages marked silent-dirty. Clamped to the
// destination region like store.
func (r *Rank) dmaStore(addr uint64, payload []byte) {
	reg := r.space.Find(addr)
	if reg == nil {
		return
	}
	n := uint64(len(payload))
	if addr+n > reg.End() {
		n = reg.End() - addr
	}
	silent, err := r.space.WriteDirect(addr, payload[:n])
	if err != nil {
		return
	}
	r.stats.DirectBypassBytes += n
	r.stats.SilentDirtyBytes += silent
}

// dmaStoreRange is dmaStore for size-only deliveries (synthetic fill).
func (r *Rank) dmaStoreRange(addr, n uint64) {
	reg := r.space.Find(addr)
	if reg == nil {
		return
	}
	if addr+n > reg.End() {
		n = reg.End() - addr
	}
	silent, err := r.space.WriteRangeDirect(addr, n)
	if err != nil {
		return
	}
	r.stats.DirectBypassBytes += n
	r.stats.SilentDirtyBytes += silent
}
