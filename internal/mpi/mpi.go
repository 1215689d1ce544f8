// Package mpi simulates the message-passing substrate the paper's
// applications run on: a set of ranks exchanging point-to-point messages
// and collectives over a network with a peak-bandwidth/latency cost model
// (defaults match the Quadrics QsNet II figures the paper cites: 900 MB/s,
// a few microseconds of latency).
//
// The package also reproduces the interaction the paper describes in §4.2
// between a user-level memory-protection tracker and a NIC capable of
// writing directly into user memory. In Direct mode the NIC DMAs into
// registered memory (rdma.go): the write takes no fault, so a protected
// page it lands on becomes silent-dirty, invisible to the tracker — the
// hardware analogue of the "problems" the paper reports. Every other
// delivery, and every delivery in Bounce mode, lands in an unprotected
// bounce buffer and the CPU copies it to its destination, taking ordinary
// write faults that the tracker observes — the paper's workaround, with
// its "unavoidable overhead".
//
// Completion is continuation-passing: every operation takes a callback run
// at the operation's virtual completion time. This keeps the simulation
// deterministic (no goroutines) while preserving blocking MPI semantics:
// a rank's program is a chain of callbacks, and a Recv's continuation does
// not run before the matching Send has arrived.
package mpi

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/des"
	"repro/internal/mem"
)

// AnySource matches a Recv against a Send from any rank.
const AnySource = -1

// DeliveryMode selects how the NIC writes incoming message payloads.
type DeliveryMode uint8

const (
	// Bounce models the paper's workaround (and is the default): the
	// NIC writes into a dedicated unprotected buffer, and the CPU
	// copies the payload to its destination, faulting like any other
	// write.
	Bounce DeliveryMode = iota
	// Direct models an RDMA NIC: zero-copy DMA into registered memory
	// (rdma.go), bypassing the CPU and so taking no write faults. A
	// destination the rank has not registered, or a rank degraded by
	// the drain protocol, falls back to the bounce path.
	Direct
)

// Network is the interconnect cost model.
type Network struct {
	// Latency is the one-way message latency.
	Latency des.Time
	// Bandwidth is the peak link bandwidth in bytes per virtual second.
	Bandwidth float64
	// CopyBandwidth is the CPU memcpy bandwidth used for bounce-buffer
	// copies, in bytes per virtual second.
	CopyBandwidth float64
}

// QsNet returns the network model for the Quadrics QsNet II interconnect
// used in the paper's cluster (§3: 900 MB/s peak).
func QsNet() Network {
	return Network{
		Latency:       2 * des.Microsecond,
		Bandwidth:     900e6,
		CopyBandwidth: 2e9, // Itanium II STREAM-class copy rate
	}
}

// transfer returns the wire time for n bytes.
func (n Network) transfer(bytes uint64) des.Time {
	return n.Latency + des.Time(float64(bytes)/n.Bandwidth*float64(des.Second))
}

// copyTime returns the CPU time to copy n bytes out of the bounce buffer.
func (n Network) copyTime(bytes uint64) des.Time {
	if n.CopyBandwidth <= 0 {
		return 0
	}
	return des.Time(float64(bytes) / n.CopyBandwidth * float64(des.Second))
}

// TransferTime returns the wire time for n bytes — one latency plus the
// serialization delay at peak bandwidth. Exported for cost accounting by
// layers (e.g. parity-shard exchange in internal/redundancy) that model
// traffic on this link without routing it through a World.
func (n Network) TransferTime(bytes uint64) des.Time { return n.transfer(bytes) }

// CopyTime returns the CPU memcpy time for n bytes at the bounce-copy
// rate; zero when CopyBandwidth is unset. Direct (RDMA) transfers skip
// this cost.
func (n Network) CopyTime(bytes uint64) des.Time { return n.copyTime(bytes) }

// Message describes a delivered point-to-point message.
type Message struct {
	Src, Dst int
	Tag      int
	Bytes    uint64
	// Payload carries the message bytes when the sender used SendData
	// or Put; nil for size-only sends, whose delivery writes a synthetic
	// fill. It is lent to the receive's continuation: the bytes are the
	// message's pooled record, read-only and intact until the
	// continuation returns, and reused after. A continuation that keeps
	// them copies them first.
	Payload []byte
	// SentAt is the virtual time the sender injected the message.
	SentAt des.Time
	// DeliveredAt is the virtual time the payload landed at the receiver.
	DeliveredAt des.Time
}

type matchKey struct {
	src int // AnySource allowed in recvs
	tag int
}

type pendingRecv struct {
	key  matchKey
	addr uint64 // destination buffer; 0 means "count only"
	fn   func(Message)
}

// flight is the record of one message in flight, from injection until its
// receive has finished. It carries the message, the receive it matched and
// its own two event callbacks, bound once when the record is first made, so
// moving a message along inject → deliver → complete → bounce copy → finish
// schedules existing func values and allocates nothing. A one-sided put is
// a flight whose receive is preset at injection: it lands without matching.
//
// Records are recycled through per-rank free lists: post takes the
// record from the sender's list and finish returns it there, so a rank
// that only receives pools nothing and a sender keeps reusing its own
// records whatever its peers do. In between the record belongs to
// whichever event holds it. A record keeps its payload buffer across
// uses, so a warm sender copies each payload into bytes it already has.
type flight struct {
	msg  Message
	recv pendingRecv // the matched receive, valid from complete to finish
	put  bool        // a one-sided write: recv is preset, deliver skips matching
	buf  []byte      // the payload copy msg.Payload lends; reused by the next message

	land   func() // arrival at the destination NIC: Rank.deliver
	copied func() // end of the bounce-buffer copy: store, then finish
}

// maxFreeFlights bounds a rank's free list: a burst of sends allocates as
// many records as it has in flight, and past the bound the surplus goes
// to the GC once they land.
const maxFreeFlights = 256

// takeFlight returns a record for a message r is injecting.
func (r *Rank) takeFlight() *flight {
	if n := len(r.freeFlights); n > 0 {
		f := r.freeFlights[n-1]
		r.freeFlights = r.freeFlights[:n-1]
		return f
	}
	w, f := r.world, &flight{}
	f.land = func() { w.ranks[f.msg.Dst].deliver(f) }
	f.copied = func() {
		dst := w.ranks[f.msg.Dst]
		dst.stats.BounceCopyBytes += f.msg.Bytes
		dst.store(f.recv.addr, f.msg.Bytes, f.msg.Payload)
		dst.finish(f)
	}
	return f
}

// post injects msg, which src is sending, to arrive at its destination's
// NIC at virtual time at, and returns its record. A payload is copied
// into the record, like a NIC reading the send buffer, so the sender may
// reuse msg.Payload as soon as post returns.
func (w *World) post(src *Rank, msg Message, at des.Time) *flight {
	f := src.takeFlight()
	if len(msg.Payload) > 0 {
		f.buf = append(f.buf[:0], msg.Payload...)
		msg.Payload = f.buf[:len(f.buf):len(f.buf)]
	} else {
		msg.Payload = nil
	}
	f.msg = msg
	w.trackDelivery(msg.Dst)
	w.eng.Schedule(at, f.land)
	return f
}

// deque is a FIFO of values with cheap removal at the head — where matching
// finds its entry whenever messages and receives pair up in order — and
// ordered removal from the middle otherwise.
type deque[T any] struct {
	buf  []T
	head int
}

func (q *deque[T]) len() int { return len(q.buf) - q.head }

// at returns entry i, counted from the head.
func (q *deque[T]) at(i int) *T { return &q.buf[q.head+i] }

func (q *deque[T]) push(v T) {
	if q.head > 0 && len(q.buf) == cap(q.buf) && q.head >= len(q.buf)/2 {
		// Full, and at least half of it is consumed head: slide the live
		// entries down instead of growing.
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, v)
}

// remove deletes entry i, counted from the head, keeping the others in
// order, and returns it.
func (q *deque[T]) remove(i int) T {
	var zero T
	i += q.head
	v := q.buf[i]
	if i == q.head {
		q.buf[i] = zero
		q.head++
		if q.head == len(q.buf) {
			q.buf, q.head = q.buf[:0], 0
		}
		return v
	}
	last := len(q.buf) - 1
	copy(q.buf[i:], q.buf[i+1:])
	q.buf[last] = zero
	q.buf = q.buf[:last]
	return v
}

// Stats aggregates per-rank communication counters.
type Stats struct {
	Sends, Recvs     uint64
	Puts             uint64 // one-sided RDMA writes injected
	BytesSent        uint64
	BytesReceived    uint64
	BounceCopyBytes  uint64 // bytes copied out of the bounce buffer by the CPU
	CollectiveCalls  uint64
	BarrierWaitTotal des.Time // total time ranks spent waiting in barriers

	// DirectBypassBytes counts bytes DMA'd straight into registered
	// regions — traffic the CPU (and therefore the write-fault tracker)
	// never touched.
	DirectBypassBytes uint64
	// SilentDirtyBytes counts the subset of DirectBypassBytes that
	// landed on write-protected pages: the measured IWS under-count.
	SilentDirtyBytes uint64
	// RegisteredBytes is the current NIC-registered footprint (a gauge:
	// RegisterMemory raises it, DeregisterAll lowers it).
	RegisteredBytes uint64
}

// Rank is one simulated MPI process.
type Rank struct {
	world *World
	id    int
	space *mem.AddressSpace

	bounce      *mem.Region        // unprotected landing zone of every bounce delivery
	recvQ       deque[pendingRecv] // posted receives, in post order
	arrived     deque[*flight]     // unexpected messages, in arrival order
	freeFlights []*flight          // recycled records; see flight
	stats       Stats
	onDeliver   func(bytes uint64, at des.Time)

	registered []*mem.Region // NIC-pinned regions (see rdma.go)
	degraded   bool          // sticky bounce-mode fallback after drain timeout

	// ar is the rank's AllReduce in flight (call, while busy) and, bound
	// on the first completion that needs an event of its own (release),
	// finishAllReduce as a func value.
	ar struct {
		call allReduceCall
		busy bool
		done func()
	}
}

// Space returns the rank's address space.
func (r *Rank) Space() *mem.AddressSpace { return r.space }

// Stats returns a copy of the rank's counters.
func (r *Rank) Stats() Stats { return r.stats }

// SetDeliveryHook installs fn to observe every payload delivery (the
// tracker uses this to build the paper's "data received per timeslice"
// series, Fig 1b). It returns the previous hook. at is the clock when the
// payload is delivered; a run of counted receives (CountRecvs) delivers
// its messages at the clock of its one call, so a workload runner's
// settled deposits report the instant of the settled run's last message,
// not each message's own copy end. No hook in this repository reads at.
func (r *Rank) SetDeliveryHook(fn func(bytes uint64, at des.Time)) func(uint64, des.Time) {
	old := r.onDeliver
	r.onDeliver = fn
	return old
}

// World is a communicator spanning a fixed set of ranks.
type World struct {
	eng   *des.Engine
	net   Network
	mode  DeliveryMode
	ranks []*Rank

	// A barrier generation: the open one's arrivals, in arrival order,
	// and its first and last arrival times. A complete generation is
	// released by one event (release): the other buffer, released, holds
	// its arrivals while that event is queued (releasing). An AllReduce
	// generation completes by one event too (finish), over the ranks in
	// finishing.
	arrivals, released []arrival
	barrierMax         des.Time
	barrierFirst       des.Time
	releasing          bool
	finishing          []*Rank
	// The two events' callbacks, bound once (NewWorld).
	releaseFn, finishFn func()

	// faults, when non-nil, is the installed interconnect fault model
	// (see flaky.go). Nil means a perfect network.
	faults *netFaults

	// rdma is the in-flight bookkeeping of a Direct world's drain
	// protocol (see rdma.go); nil in Bounce mode, which skips it.
	rdma *rdmaState
}

// NewWorld creates n ranks, each owning one of the provided address
// spaces (len(spaces) must equal n). Each rank gets a 1 MB bounce arena
// (mem.AddressSpace.MapBounce): no dirty log watches it and no
// checkpoint holds it. A Direct world also counts its deliveries in
// flight, for AwaitDrain.
func NewWorld(eng *des.Engine, net Network, mode DeliveryMode, spaces []*mem.AddressSpace) (*World, error) {
	if len(spaces) == 0 {
		return nil, fmt.Errorf("mpi: world needs at least one rank")
	}
	if mode != Bounce && mode != Direct {
		return nil, fmt.Errorf("mpi: unknown delivery mode %d", mode)
	}
	w := &World{eng: eng, net: net, mode: mode}
	for i, sp := range spaces {
		b, err := sp.MapBounce(1 << 20)
		if err != nil {
			return nil, fmt.Errorf("mpi: bounce buffer for rank %d: %w", i, err)
		}
		w.ranks = append(w.ranks, &Rank{world: w, id: i, space: sp, bounce: b})
	}
	if mode == Direct {
		w.rdma = &rdmaState{inflight: make([]int, len(spaces))}
	}
	w.releaseFn = func() {
		w.release(w.released)
		clear(w.released)
		w.released, w.releasing = w.released[:0], false
	}
	w.finishFn = w.finish
	return w, nil
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.ranks) }

// Rank returns rank i.
func (w *World) Rank(i int) *Rank { return w.ranks[i] }

// BounceRegion returns rank i's bounce arena. Its kind, mem.Bounce,
// already keeps it writable and out of every checkpoint, exactly as the
// paper's library keeps its network landing zone.
func (w *World) BounceRegion(i int) *mem.Region { return w.ranks[i].bounce }

// Send injects a message of the given size from r to dst. The payload
// lands at the receiver's posted buffer address. onComplete (optional)
// runs when the sender's injection finishes (eager protocol: immediately
// after the send overhead).
func (r *Rank) Send(dst, tag int, bytes uint64, onComplete func()) {
	r.send(dst, tag, bytes, nil, onComplete)
}

// SendData injects a message carrying real bytes; the receiver's buffer
// ends up holding exactly data. The slice is copied at injection (into
// the message's record, see post), so the caller may reuse it
// immediately.
func (r *Rank) SendData(dst, tag int, data []byte, onComplete func()) {
	r.send(dst, tag, uint64(len(data)), data, onComplete)
}

func (r *Rank) send(dst, tag int, bytes uint64, payload []byte, onComplete func()) {
	if dst < 0 || dst >= len(r.world.ranks) {
		panic(fmt.Sprintf("mpi: send to invalid rank %d", dst))
	}
	r.stats.Sends++
	r.stats.BytesSent += bytes
	r.inject(Message{Src: r.id, Dst: dst, Tag: tag, Bytes: bytes, Payload: payload, SentAt: r.world.eng.Now()}, onComplete)
}

// inject puts an exactly-once message on the wire and returns its record.
// On a perfect fabric it arrives one transfer later and the sender
// completes after one latency (eager injection); on a lossy one both ride
// the ARQ schedule: delivery at the first surviving copy, completion at
// the first surviving ack.
func (r *Rank) inject(msg Message, onComplete func()) *flight {
	w := r.world
	deliver, ack := w.net.transfer(msg.Bytes), w.net.Latency
	if w.faults != nil {
		deliver, ack = w.planARQ(msg.Bytes)
		w.faults.suppressDup()
	}
	f := w.post(r, msg, w.eng.Now()+deliver)
	if onComplete != nil {
		w.eng.After(ack, onComplete)
	}
	return f
}

// Recv posts a receive on r for a message from src (or AnySource) with the
// given tag, to be deposited at destAddr in r's address space (destAddr 0
// skips the memory write and only counts bytes). fn runs once the payload
// has been delivered — including the bounce-buffer copy in Bounce mode.
func (r *Rank) Recv(src, tag int, destAddr uint64, fn func(Message)) {
	pr := pendingRecv{key: matchKey{src, tag}, addr: destAddr, fn: fn}
	// Try unexpected-message queue first (arrival order).
	for i := 0; i < r.arrived.len(); i++ {
		if f := *r.arrived.at(i); pr.matches(&f.msg) {
			r.arrived.remove(i)
			f.recv = pr
			r.complete(f)
			return
		}
	}
	r.recvQ.push(pr)
}

func (pr *pendingRecv) matches(m *Message) bool {
	return (pr.key.src == AnySource || pr.key.src == m.Src) && pr.key.tag == m.Tag
}

// deliver handles a message arriving at the NIC at the current time: a
// put lands at once, a two-sided message takes the first posted receive
// it matches or waits in the unexpected queue.
func (r *Rank) deliver(f *flight) {
	r.world.untrackDelivery(r.id)
	f.msg.DeliveredAt = r.world.eng.Now()
	if f.put {
		r.complete(f)
		return
	}
	for i := 0; i < r.recvQ.len(); i++ {
		if r.recvQ.at(i).matches(&f.msg) {
			f.recv = r.recvQ.remove(i)
			r.complete(f)
			return
		}
	}
	r.arrived.push(f)
}

// finish ends a receive or a put once its payload has landed: counters
// (a put is no receive), the delivery hook, the receive's continuation,
// then the record back to its sender's free list. The record goes back
// last because the continuation reads the payload the record holds: a
// continuation that makes the same sender send again takes another one.
func (r *Rank) finish(f *flight) {
	m, fn := f.msg, f.recv.fn
	if !f.put {
		r.stats.Recvs++
	}
	r.landed(m.Bytes, 1)
	if fn != nil {
		fn(m)
	}
	f.recv, f.put = pendingRecv{}, false
	if src := r.world.ranks[m.Src]; len(src.freeFlights) < maxFreeFlights {
		src.freeFlights = append(src.freeFlights, f)
	}
}

// landed counts k payloads of bytes each delivered at the current time:
// the byte counter, then the delivery hook once per payload.
func (r *Rank) landed(bytes uint64, k int) {
	r.stats.BytesReceived += uint64(k) * bytes
	if r.onDeliver != nil {
		for ; k > 0; k-- {
			r.onDeliver(bytes, r.world.eng.Now())
		}
	}
}

// complete lands a matched receive's (or a put's) payload in its
// destination buffer, then finish runs. In a Direct world a registered
// destination takes the zero-copy DMA path: the write bypasses the CPU,
// so protected pages become silent-dirty instead of faulting. Everything
// else — a Bounce world, an unregistered destination (a NIC refusing an
// unpinned address), a degraded rank — lands via the bounce arena.
func (r *Rank) complete(f *flight) {
	pr, m := &f.recv, &f.msg
	switch {
	case pr.addr == 0 || m.Bytes == 0:
		r.finish(f)
	case r.world.mode == Direct && !r.degraded && r.registeredSpan(pr.addr, m.Bytes):
		if m.Payload != nil {
			r.dmaStore(pr.addr, m.Payload)
		} else {
			r.dmaStoreRange(pr.addr, m.Bytes)
		}
		r.finish(f)
	default:
		r.bounceDeliver(f)
	}
}

// bounceDeliver lands a message via the bounce arena: the NIC writes
// into the unprotected buffer (no faults), then the CPU copies the
// payload to its destination, faulting normally — the paper's
// workaround, with its copy cost. The copy is counted when it ends
// (flight.copied).
func (r *Rank) bounceDeliver(f *flight) {
	w := r.world
	w.eng.After(w.net.copyTime(f.msg.Bytes), f.copied)
}

// store lands n delivered bytes (real payload when non-nil, synthetic
// fill otherwise) at addr, clamped to the destination region: a CPU
// copy, faulting like any application store.
func (r *Rank) store(addr, n uint64, payload []byte) {
	if payload == nil {
		r.fill(addr, n, 1)
		return
	}
	if reg := r.space.Find(addr); reg != nil {
		_ = r.space.Write(addr, payload[:min(n, reg.End()-addr)])
	}
}

// fill is k size-only stores of n bytes at addr, back to back.
func (r *Rank) fill(addr, n uint64, k int) {
	if reg := r.space.Find(addr); reg != nil {
		_ = r.space.RewriteRange(addr, min(n, reg.End()-addr), uint64(k))
	}
}

// copyOut is the size-only store used by collectives' result buffers.
func (r *Rank) copyOut(addr, n uint64) { r.store(addr, n, nil) }

// logTwo returns ceil(log2(n)) with logTwo(1) == 0.
func logTwo(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// Barrier blocks r until every rank in the world has called Barrier for
// the same generation. All continuations run at the same virtual time:
// lastArrival + latency*ceil(log2 N), the dissemination-barrier cost.
// One release event runs the generation's continuations, in arrival
// order. That is what one release event per rank would do: those events
// would hold consecutive sequence numbers at one instant, so nothing
// could run between them, and whatever a continuation queues at that
// instant runs after all of them either way. A nil continuation is
// skipped.
func (r *Rank) Barrier(fn func()) { r.arrive(arrival{fn: fn}) }

// arrival is one rank's entry in a barrier generation: the continuation
// its release runs or, for an AllReduce waiting on the rank (AllReduce),
// the rank.
type arrival struct {
	fn func()
	ar *Rank
}

// arrive enters a into the open barrier generation and, when it is the
// last arrival, queues the generation's release.
func (r *Rank) arrive(a arrival) {
	w := r.world
	r.stats.CollectiveCalls++
	now := w.eng.Now()
	if len(w.arrivals) == 0 {
		w.barrierMax = now
		w.barrierFirst = now
	}
	if now > w.barrierMax {
		w.barrierMax = now
	}
	w.arrivals = append(w.arrivals, a)
	if len(w.arrivals) < len(w.ranks) {
		return
	}
	release := w.barrierMax + w.net.Latency*des.Time(logTwo(len(w.ranks)))
	if w.faults != nil {
		release += w.barrierPenalty(logTwo(len(w.ranks)), len(w.ranks), w.barrierMax)
	}
	wait := w.barrierMax - w.barrierFirst
	for _, rk := range w.ranks {
		rk.stats.BarrierWaitTotal += wait
	}
	if w.releasing {
		// The last generation's release is still queued (ranks called
		// again before their continuations ran): this one gets a list
		// and an event of its own.
		gen := slices.Clone(w.arrivals)
		clear(w.arrivals)
		w.arrivals = w.arrivals[:0]
		w.eng.Schedule(release, func() { w.release(gen) })
		return
	}
	w.arrivals, w.released = w.released, w.arrivals
	w.releasing = true
	w.eng.Schedule(release, w.releaseFn)
}

// release runs a barrier generation's continuations at its release; an
// AllReduce waiting on its rank queues its completion at release + xfer.
// A generation of such AllReduces, all of one size, completes by one
// event (finish) at that instant instead: xfer is the same for every
// rank and draws nothing, and the per-rank completions would hold
// consecutive sequence numbers too. No other such generation's
// completion is queued: each rank arrives in one once, and stays busy
// until its completion ran.
func (w *World) release(gen []arrival) {
	if bytes, ok := sameAllReduce(gen); ok {
		for _, a := range gen {
			w.finishing = append(w.finishing, a.ar)
		}
		w.eng.After(w.collectiveXfer(des.Time(logTwo(len(w.ranks))), bytes, w.eng.Now()), w.finishFn)
		return
	}
	for _, a := range gen {
		switch r := a.ar; {
		case r != nil:
			if r.ar.done == nil {
				r.ar.done = r.finishAllReduce
			}
			r.allReduceXfer(r.ar.call.bytes, r.ar.done)
		case a.fn != nil:
			a.fn()
		}
	}
}

// sameAllReduce reports whether every arrival of gen is an AllReduce
// waiting on its rank, and of which common size.
func sameAllReduce(gen []arrival) (bytes uint64, ok bool) {
	for i, a := range gen {
		if a.ar == nil || (i > 0 && a.ar.ar.call.bytes != bytes) {
			return 0, false
		}
		bytes = a.ar.ar.call.bytes
	}
	return bytes, true
}

// finish completes the AllReduce generation in w.finishing, rank by rank
// in arrival order.
func (w *World) finish() {
	for _, r := range w.finishing {
		r.finishAllReduce()
	}
	clear(w.finishing)
	w.finishing = w.finishing[:0]
}

// AllReduce performs a global reduction of bytes payload per rank,
// depositing the result at destAddr in every rank's space (0 to skip the
// write). Completion follows barrier synchronisation plus the
// recursive-doubling transfer cost: log2(N) steps of (latency + bytes/bw).
//
// The call's arguments wait on the rank (allReduceCall), and its
// generation's release completes it (release, finish); a call made while
// the rank's previous one is still in flight gets continuations of its
// own.
func (r *Rank) AllReduce(bytes uint64, destAddr uint64, fn func()) {
	c := allReduceCall{bytes: bytes, dest: destAddr, fn: fn}
	if r.ar.busy {
		r.Barrier(func() { r.allReduceXfer(c.bytes, func() { r.allReduceDone(c) }) })
		return
	}
	r.ar.call, r.ar.busy = c, true
	r.arrive(arrival{ar: r})
}

// finishAllReduce completes the rank's AllReduce in flight.
func (r *Rank) finishAllReduce() {
	c := r.ar.call
	r.ar.call, r.ar.busy = allReduceCall{}, false
	r.allReduceDone(c)
}

// allReduceCall is one AllReduce's arguments.
type allReduceCall struct {
	bytes, dest uint64
	fn          func()
}

// allReduceXfer runs at the barrier's release: the transfer is computed
// then so degradation windows active *now* apply; it is identical for
// every rank (no draws), so completion stays simultaneous.
func (r *Rank) allReduceXfer(bytes uint64, done func()) {
	w := r.world
	w.eng.After(w.collectiveXfer(des.Time(logTwo(len(w.ranks))), bytes, w.eng.Now()), done)
}

// allReduceDone completes c on r: the result lands and c's continuation
// runs.
func (r *Rank) allReduceDone(c allReduceCall) {
	w := r.world
	if c.dest != 0 && c.bytes > 0 {
		r.copyOut(c.dest, c.bytes)
	}
	r.landed(c.bytes*uint64(logTwo(len(w.ranks))), 1)
	if c.fn != nil {
		c.fn()
	}
}
