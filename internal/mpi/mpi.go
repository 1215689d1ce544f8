// Package mpi simulates the message-passing substrate the paper's
// applications run on: a set of ranks exchanging point-to-point messages
// and collectives over a network with a peak-bandwidth/latency cost model
// (defaults match the Quadrics QsNet II figures the paper cites: 900 MB/s,
// a few microseconds of latency).
//
// The package also reproduces the interaction the paper describes in §4.2
// between a user-level memory-protection tracker and a NIC capable of
// writing directly into user memory: in Direct mode, deliveries into
// write-protected pages fail (the hardware analogue of the "problems" the
// paper reports), while in Bounce mode the NIC deposits messages into an
// unprotected bounce buffer and the CPU copies them to their destination,
// taking ordinary write faults that the tracker observes — the paper's
// workaround, with its "unavoidable overhead".
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
	// Direct models zero-copy DMA into the destination buffer. Writes
	// bypass the CPU entirely, so they take no write faults — and fail
	// outright when the destination page is write-protected.
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
	// Payload carries the message bytes when the sender used SendData;
	// nil for size-only sends, whose delivery writes a synthetic fill.
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
// moving a message along send → deliver → complete → bounce copy → finish
// schedules existing func values and allocates nothing.
//
// Records are recycled through per-rank free lists: send takes the record
// from the sender's list, finish returns it to the receiver's. In between
// the record belongs to whichever event holds it.
type flight struct {
	msg  Message
	recv pendingRecv // the matched receive, valid from complete to finish

	land   func() // arrival at the destination NIC: Rank.deliver
	copied func() // end of the bounce-buffer copy: store, then finish
}

// maxFreeFlights bounds a rank's free list. A rank that receives more than
// it sends (a gather root, a heartbeat monitor) would otherwise hoard every
// record its peers allocate; past the bound the surplus goes to the GC.
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
		dst.store(f.recv.addr, f.msg.Bytes, f.msg.Payload)
		dst.finish(f)
	}
	return f
}

// post injects msg, which src is sending, to arrive at its destination's
// NIC at virtual time at.
func (w *World) post(src *Rank, msg Message, at des.Time) {
	f := src.takeFlight()
	f.msg = msg
	w.trackDelivery(msg.Dst)
	w.eng.Schedule(at, f.land)
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
	NICConflicts     uint64 // Direct-mode deliveries that hit protected pages
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

	bounce      *mem.Region        // unprotected landing zone (Bounce mode / degraded RDMA)
	recvQ       deque[pendingRecv] // posted receives, in post order
	arrived     deque[*flight]     // unexpected messages, in arrival order
	freeFlights []*flight          // recycled records; see flight
	stats       Stats
	onDeliver   func(bytes uint64, at des.Time)

	registered []*mem.Region // NIC-pinned regions (see rdma.go)
	degraded   bool          // sticky bounce-mode fallback after drain timeout
}

// Space returns the rank's address space.
func (r *Rank) Space() *mem.AddressSpace { return r.space }

// Stats returns a copy of the rank's counters.
func (r *Rank) Stats() Stats { return r.stats }

// SetDeliveryHook installs fn to observe every payload delivery (the
// tracker uses this to build the paper's "data received per timeslice"
// series, Fig 1b). It returns the previous hook.
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

	barrierArrived int
	barrierFns     []func()
	barrierMax     des.Time
	barrierFirst   des.Time

	// faults, when non-nil, is the installed interconnect fault model
	// (see flaky.go). Nil means a perfect network.
	faults *netFaults

	// rdma, when non-nil, is the registered-memory model installed by
	// EnableRDMA (see rdma.go). Nil worlds skip in-flight tracking.
	rdma *rdmaState
}

// NewWorld creates n ranks, each owning one of the provided address
// spaces (len(spaces) must equal n). In Bounce mode each rank gets a
// 1 MB bounce arena mapped outside tracker protection.
func NewWorld(eng *des.Engine, net Network, mode DeliveryMode, spaces []*mem.AddressSpace) (*World, error) {
	if len(spaces) == 0 {
		return nil, fmt.Errorf("mpi: world needs at least one rank")
	}
	w := &World{eng: eng, net: net, mode: mode}
	for i, sp := range spaces {
		r := &Rank{world: w, id: i, space: sp}
		if mode == Bounce {
			b, err := sp.Mmap(1 << 20)
			if err != nil {
				return nil, fmt.Errorf("mpi: bounce buffer for rank %d: %w", i, err)
			}
			r.bounce = b
		}
		w.ranks = append(w.ranks, r)
	}
	return w, nil
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.ranks) }

// Rank returns rank i.
func (w *World) Rank(i int) *Rank { return w.ranks[i] }

// BounceRegion returns rank i's bounce arena (nil in Direct mode).
// The tracker must leave this region unprotected, exactly as the paper's
// library keeps its network landing zone writable.
func (w *World) BounceRegion(i int) *mem.Region { return w.ranks[i].bounce }

// Send injects a message of the given size from r to dst. The payload
// lands at the receiver's posted buffer address. onComplete (optional)
// runs when the sender's injection finishes (eager protocol: immediately
// after the send overhead).
func (r *Rank) Send(dst, tag int, bytes uint64, onComplete func()) {
	r.send(dst, tag, bytes, nil, onComplete)
}

// SendData injects a message carrying real bytes; the receiver's buffer
// ends up holding exactly data. The slice is copied at injection, like a
// NIC reading the send buffer, so the caller may reuse it immediately.
func (r *Rank) SendData(dst, tag int, data []byte, onComplete func()) {
	payload := append([]byte(nil), data...)
	r.send(dst, tag, uint64(len(payload)), payload, onComplete)
}

func (r *Rank) send(dst, tag int, bytes uint64, payload []byte, onComplete func()) {
	if dst < 0 || dst >= len(r.world.ranks) {
		panic(fmt.Sprintf("mpi: send to invalid rank %d", dst))
	}
	w := r.world
	r.stats.Sends++
	r.stats.BytesSent += bytes
	msg := Message{Src: r.id, Dst: dst, Tag: tag, Bytes: bytes, Payload: payload, SentAt: w.eng.Now()}
	if w.faults != nil {
		// Lossy fabric: exactly-once delivery rides the ARQ schedule;
		// the sender completes at the first surviving ack.
		w.sendFaulty(r, msg, onComplete)
		return
	}
	w.post(r, msg, w.eng.Now()+w.net.transfer(bytes))
	if onComplete != nil {
		// Eager injection: sender-side overhead is one latency.
		w.eng.After(w.net.Latency, onComplete)
	}
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

// deliver handles a message arriving at the NIC at the current time.
func (r *Rank) deliver(f *flight) {
	r.world.untrackDelivery(r.id)
	f.msg.DeliveredAt = r.world.eng.Now()
	for i := 0; i < r.recvQ.len(); i++ {
		if r.recvQ.at(i).matches(&f.msg) {
			f.recv = r.recvQ.remove(i)
			r.complete(f)
			return
		}
	}
	r.arrived.push(f)
}

// finish ends a matched receive once its payload has landed: counters, the
// delivery hook, the record back to this rank's free list, then the
// receive's continuation.
func (r *Rank) finish(f *flight) {
	m, fn := f.msg, f.recv.fn
	f.msg.Payload, f.recv.fn = nil, nil
	if len(r.freeFlights) < maxFreeFlights {
		r.freeFlights = append(r.freeFlights, f)
	}
	r.stats.Recvs++
	r.stats.BytesReceived += m.Bytes
	if r.onDeliver != nil {
		r.onDeliver(m.Bytes, r.world.eng.Now())
	}
	if fn != nil {
		fn(m)
	}
}

// complete finishes a matched receive: the payload is written into the
// destination buffer per the delivery mode, then finish runs.
func (r *Rank) complete(f *flight) {
	w := r.world
	pr, m := &f.recv, &f.msg
	if pr.addr == 0 || m.Bytes == 0 {
		r.finish(f)
		return
	}
	switch w.mode {
	case Direct:
		if w.rdma != nil {
			// Registered-memory model: a registered destination takes
			// the zero-copy DMA path — the write bypasses the CPU, so
			// protected pages become silent-dirty instead of faulting.
			// Unregistered destinations (and degraded ranks) fall back
			// to the bounce arena, like a NIC refusing an unpinned
			// address.
			if !r.degraded && r.registeredSpan(pr.addr, m.Bytes) {
				if m.Payload != nil {
					r.dmaStore(pr.addr, m.Payload)
				} else {
					r.dmaStoreRange(pr.addr, m.Bytes)
				}
				r.finish(f)
				return
			}
			r.bounceDeliver(f)
			return
		}
		// DMA: no CPU involvement, no write faults — but a protected
		// destination page is a conflict the hardware cannot resolve.
		if r.pageSpanProtected(pr.addr, m.Bytes) {
			r.stats.NICConflicts++
			// The payload is dropped; tracking below the NIC is
			// impossible, which is precisely why the paper's
			// library intercepts receive calls.
			r.finish(f)
			return
		}
		r.store(pr.addr, m.Bytes, m.Payload)
		r.finish(f)
	case Bounce:
		r.bounceDeliver(f)
	}
}

// bounceDeliver lands a message via the bounce arena: the NIC writes
// into the unprotected buffer (no faults), then the CPU copies the
// payload to its destination, faulting normally — the paper's
// workaround, with its copy cost.
func (r *Rank) bounceDeliver(f *flight) {
	w := r.world
	r.stats.BounceCopyBytes += f.msg.Bytes
	w.eng.After(w.net.copyTime(f.msg.Bytes), f.copied)
}

// pageSpanProtected reports whether any page in [addr, addr+n) is
// write-protected.
func (r *Rank) pageSpanProtected(addr, n uint64) bool {
	reg := r.space.Find(addr)
	if reg == nil {
		return false
	}
	ps := r.space.PageSize()
	end := min(addr+n, reg.End())
	for pa := addr &^ (ps - 1); pa < end; pa += ps {
		if reg.Protected(pa) {
			return true
		}
	}
	return false
}

// store lands n delivered bytes (real payload when non-nil, synthetic
// fill otherwise) at addr, clamped to the destination region. In Direct
// mode all target pages are already unprotected so no faults fire; in
// Bounce mode this is the CPU copy, faulting like any application store.
func (r *Rank) store(addr, n uint64, payload []byte) {
	reg := r.space.Find(addr)
	if reg == nil {
		return
	}
	if addr+n > reg.End() {
		n = reg.End() - addr
	}
	if payload != nil {
		_ = r.space.Write(addr, payload[:n])
		return
	}
	_ = r.space.WriteRange(addr, n)
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
// Each rank's continuation fires as its own release event, in arrival
// order.
func (r *Rank) Barrier(fn func()) {
	w := r.world
	r.stats.CollectiveCalls++
	now := w.eng.Now()
	if w.barrierArrived == 0 {
		w.barrierMax = now
		w.barrierFirst = now
	}
	if now > w.barrierMax {
		w.barrierMax = now
	}
	w.barrierArrived++
	w.barrierFns = append(w.barrierFns, fn)
	if w.barrierArrived < len(w.ranks) {
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
	w.barrierArrived = 0
	// One release event per rank, in arrival order. Nothing runs before
	// this returns, so the list's backing array is free for the next
	// generation as soon as its continuations are handed to the engine.
	for _, f := range w.barrierFns {
		w.eng.Schedule(release, orNoop(f))
	}
	clear(w.barrierFns)
	w.barrierFns = w.barrierFns[:0]
}

// orNoop substitutes one shared no-op for a nil continuation, so a rank
// that passed none still gets its release event (and Fired() its count)
// without a wrapper closure per rank.
func orNoop(f func()) func() {
	if f == nil {
		return noop
	}
	return f
}

func noop() {}

// AllReduce performs a global reduction of bytes payload per rank,
// depositing the result at destAddr in every rank's space (0 to skip the
// write). Completion follows barrier synchronisation plus the
// recursive-doubling transfer cost: log2(N) steps of (latency + bytes/bw).
func (r *Rank) AllReduce(bytes uint64, destAddr uint64, fn func()) {
	w := r.world
	steps := des.Time(logTwo(len(w.ranks)))
	rank := r
	r.Barrier(func() {
		// Computed at release so degradation windows active *now* apply;
		// identical for every rank (no draws), so completion stays
		// simultaneous.
		xfer := w.collectiveXfer(steps, bytes, w.eng.Now())
		w.eng.After(xfer, func() {
			if destAddr != 0 && bytes > 0 {
				rank.copyOut(destAddr, bytes)
			}
			rank.stats.BytesReceived += bytes * uint64(logTwo(len(w.ranks)))
			if rank.onDeliver != nil {
				rank.onDeliver(bytes*uint64(logTwo(len(w.ranks))), w.eng.Now())
			}
			if fn != nil {
				fn()
			}
		})
	})
}
