package mpi

// Flaky interconnect: a seeded, deterministic fault model layered under
// the Network cost model. Real clusters drop, duplicate and delay
// packets — the QsNet hardware the paper ran on retransmits at the link
// level, and MPI implementations above lossy transports run an
// ack/retransmit protocol. This file models both sides:
//
//   - A NetFaultConfig describes per-link loss probability, duplication,
//     delay jitter and timed degradation windows (a flaky cable, a
//     congested switch). All randomness comes from one seeded PCG owned
//     by the World, so a given seed reproduces the exact packet fate
//     sequence — and therefore the exact virtual timeline — every run.
//
//   - Plain Send/SendData keep their exactly-once contract by riding an
//     ack/retransmit-with-backoff (ARQ) schedule: the full retransmit
//     plan is drawn at injection time, the payload is delivered at the
//     first surviving copy's arrival, and the sender completes when the
//     first ack survives the return path. Loss costs time, never data,
//     so the kernels' halo exchanges and the collectives still complete.
//
//   - SendBestEffort is the genuinely lossy datagram path (zero, one or
//     two copies arrive; no retransmit) — the transport failure
//     detectors gossip heartbeats over, so message loss produces real
//     false suspicion.
//
// With no faults installed (the default) every code path is bit-for-bit
// identical to the fault-free model.

import (
	"fmt"
	"math/rand/v2"
	"sync"

	"repro/internal/des"
)

// LinkFault adds extra loss probability to one directed link.
type LinkFault struct {
	Src, Dst int
	DropRate float64
}

// DegradedWindow degrades the whole fabric during [From, To): extra loss
// probability and a transfer-time multiplier (a congested or flapping
// switch). SlowFactor <= 1 means "no slowdown".
type DegradedWindow struct {
	From, To   des.Time
	ExtraDrop  float64
	SlowFactor float64
}

// NetFaultConfig parameterises the deterministic interconnect fault
// model. The zero value (never installed) means a perfect network.
type NetFaultConfig struct {
	// Seed drives every packet-fate draw; same seed, same timeline.
	Seed uint64
	// DropRate is the base per-packet loss probability on every link.
	DropRate float64
	// DupRate is the probability a surviving packet is duplicated in
	// flight. The ARQ paths suppress duplicates (receiver-side sequence
	// numbers); best-effort deliveries genuinely arrive twice.
	DupRate float64
	// JitterMax adds a uniform [0, JitterMax) delay to each surviving
	// packet. Zero disables jitter.
	JitterMax des.Time
	// Links lists per-link extra loss on top of DropRate.
	Links []LinkFault
	// Windows lists timed whole-fabric degradation intervals.
	Windows []DegradedWindow
}

// NetFaultStats counts what the fault model did to the traffic.
type NetFaultStats struct {
	// Attempts counts packet transmissions, including retransmits.
	Attempts uint64
	// Drops counts lost packets (data and acks).
	Drops uint64
	// Retransmits counts ARQ retransmissions of point-to-point sends.
	Retransmits uint64
	// DupDeliveries counts duplicated packets drawn by the model.
	DupDeliveries uint64
	// SuppressedDups counts duplicates the ARQ receiver deduplicated.
	SuppressedDups uint64
	// ForcedDeliveries counts plain sends whose whole plan was
	// drawn lost and were delivered by the terminal forced attempt.
	ForcedDeliveries uint64
	// CollectiveRetransmits counts barrier/collective rounds that lost
	// at least one packet and paid a retransmit round.
	CollectiveRetransmits uint64
	// JitterTotal accumulates injected jitter.
	JitterTotal des.Time
}

// netFaults is the World's installed fault state.
//
// Sequential worlds draw every packet fate from the single shared rng,
// preserving the historical per-seed timelines bit-for-bit. Sharded
// worlds draw from per-source-rank streams (perSrc) instead: a shared
// stream would be consumed in host-scheduling order by concurrent
// shards, while per-source streams are consumed in each source rank's
// own deterministic event order, making the full fault timeline — not
// just the digests — identical at every shard count. Barrier penalties,
// which have no single source rank, draw from a fresh per-generation
// stream. smu guards the shared counters, which concurrent shards bump.
type netFaults struct {
	cfg    NetFaultConfig
	rng    *rand.Rand
	perSrc []*rand.Rand // non-nil on sharded worlds
	smu    sync.Mutex   // guards stats on sharded worlds
	stats  NetFaultStats
	links  map[[2]int]float64
}

// rngFor returns the draw stream for packets injected by src.
func (f *netFaults) rngFor(src int) *rand.Rand {
	if f.perSrc == nil {
		return f.rng
	}
	return f.perSrc[src]
}

// reliableHardCap bounds the unlimited-retry plan of plain sends. The
// link is lossy, not severed: a plan whose every attempt was drawn lost
// (vanishingly rare at sane rates) is completed by one forced terminal
// attempt, preserving the exactly-once contract plain sends always had.
const reliableHardCap = 64

// maxLossRate clamps the effective per-packet loss probability so even a
// badly degraded link eventually gets packets through.
const maxLossRate = 0.95

// SetFaults installs (or replaces) the interconnect fault model. Call it
// before traffic flows; a nil-config network is restored by never
// calling it. Rates outside [0, 1) are rejected.
func (w *World) SetFaults(cfg NetFaultConfig) error {
	if cfg.DropRate < 0 || cfg.DropRate >= 1 || cfg.DupRate < 0 || cfg.DupRate >= 1 {
		return fmt.Errorf("mpi: fault rates must be in [0, 1): drop %v dup %v", cfg.DropRate, cfg.DupRate)
	}
	for _, l := range cfg.Links {
		if l.DropRate < 0 || l.DropRate >= 1 {
			return fmt.Errorf("mpi: link %d->%d drop rate %v out of [0, 1)", l.Src, l.Dst, l.DropRate)
		}
	}
	f := &netFaults{
		cfg:   cfg,
		rng:   rand.New(rand.NewPCG(cfg.Seed, 0xF1A4)),
		links: make(map[[2]int]float64, len(cfg.Links)),
	}
	if w.sharded {
		f.perSrc = make([]*rand.Rand, len(w.ranks))
		for i := range f.perSrc {
			f.perSrc[i] = rand.New(rand.NewPCG(cfg.Seed, 0xF1A4_0001+uint64(i)))
		}
	}
	for _, l := range cfg.Links {
		f.links[[2]int{l.Src, l.Dst}] += l.DropRate
	}
	w.faults = f
	return nil
}

// faultStats returns a copy of the fault-model counters (zero value when
// no model is installed). On sharded worlds, call between runs only.
func (w *World) faultStats() NetFaultStats {
	if w.faults == nil {
		return NetFaultStats{}
	}
	w.faults.smu.Lock()
	defer w.faults.smu.Unlock()
	return w.faults.stats
}

// lossAt returns the effective loss probability on src->dst at time at.
func (w *World) lossAt(src, dst int, at des.Time) float64 {
	f := w.faults
	p := f.cfg.DropRate + f.links[[2]int{src, dst}] + f.windowDrop(at)
	return min(p, maxLossRate)
}

// aggLossAt is the fabric-wide loss probability (no link term), used by
// the analytic collective model.
func (w *World) aggLossAt(at des.Time) float64 {
	f := w.faults
	return min(f.cfg.DropRate+f.windowDrop(at), maxLossRate)
}

func (f *netFaults) windowDrop(at des.Time) float64 {
	var p float64
	for _, dw := range f.cfg.Windows {
		if at >= dw.From && at < dw.To {
			p += dw.ExtraDrop
		}
	}
	return p
}

// slowFactorAt returns the transfer-time multiplier in effect at time at.
func (f *netFaults) slowFactorAt(at des.Time) float64 {
	s := 1.0
	for _, dw := range f.cfg.Windows {
		if at >= dw.From && at < dw.To && dw.SlowFactor > 1 {
			s *= dw.SlowFactor
		}
	}
	return s
}

// scaledTransfer is transfer() under any degradation window active at at.
func (w *World) scaledTransfer(bytes uint64, at des.Time) des.Time {
	base := w.net.transfer(bytes)
	if w.faults == nil {
		return base
	}
	if s := w.faults.slowFactorAt(at); s > 1 {
		return des.Time(float64(base) * s)
	}
	return base
}

// jitterFrom draws one packet's extra delay from rng. The caller holds
// smu (or is on a sequential world, where smu is uncontended anyway).
func (f *netFaults) jitterFrom(rng *rand.Rand) des.Time {
	if f.cfg.JitterMax <= 0 {
		return 0
	}
	j := des.Time(rng.Int64N(int64(f.cfg.JitterMax)))
	f.stats.JitterTotal += j
	return j
}

// rto returns the initial retransmission timeout for a message size; it
// doubles per attempt (capped).
func (w *World) rto(bytes uint64) des.Time { return 4 * w.net.transfer(bytes) }

// planARQ draws the complete ack/retransmit schedule of one
// point-to-point message at injection time. It returns the offsets (from
// now) of the first surviving data arrival and of the sender's first
// surviving ack; the plan always ends delivered and acked.
func (w *World) planARQ(src, dst int, bytes uint64) (deliver, ack des.Time) {
	f := w.faults
	f.smu.Lock()
	defer f.smu.Unlock()
	rng := f.rngFor(src)
	now := w.engFor(src).Now()
	rto := w.rto(bytes)
	var start des.Time
	var delivered, acked bool
	for k := 0; k < reliableHardCap; k++ {
		f.stats.Attempts++
		if k > 0 {
			f.stats.Retransmits++
		}
		at := now + start
		if rng.Float64() < w.lossAt(src, dst, at) {
			f.stats.Drops++
		} else {
			arr := start + w.scaledTransfer(bytes, at) + f.jitterFrom(rng)
			if !delivered {
				deliver, delivered = arr, true
			}
			// The ack rides the reverse link.
			if rng.Float64() < w.lossAt(dst, src, now+arr) {
				f.stats.Drops++
			} else {
				ack, acked = arr+w.net.Latency+f.jitterFrom(rng), true
				break
			}
		}
		start += rto << uint(min(k, 6))
	}
	if !delivered {
		f.stats.ForcedDeliveries++
		deliver = start + w.scaledTransfer(bytes, now+start)
	}
	if !acked {
		ack = deliver + w.net.Latency
	}
	return deliver, ack
}

// suppressDup accounts for in-flight duplication on an ARQ path: the
// receiver's sequence numbers drop the extra copy, so it costs nothing
// but shows up in the stats.
func (f *netFaults) suppressDup(src int) {
	f.smu.Lock()
	defer f.smu.Unlock()
	if f.cfg.DupRate > 0 && f.rngFor(src).Float64() < f.cfg.DupRate {
		f.stats.DupDeliveries++
		f.stats.SuppressedDups++
	}
}

// sendFaulty routes a plain (exactly-once) send through the ARQ model:
// delivery at the first surviving copy, sender completion at the first
// surviving ack. Every arrival offset is at least one transfer time and
// therefore at least one latency — the sharded lookahead contract.
func (w *World) sendFaulty(r *Rank, msg Message, onComplete func()) {
	deliver, ack := w.planARQ(msg.Src, msg.Dst, msg.Bytes)
	w.faults.suppressDup(msg.Src)
	src := w.engFor(msg.Src)
	w.post(r, msg, src.Now()+deliver)
	if onComplete != nil {
		src.After(ack, onComplete)
	}
}

// SendBestEffort sends a datagram with no retransmission: under the
// fault model zero, one or two copies arrive (loss and duplication are
// real); without one it behaves like Send. onComplete fires after the
// injection overhead regardless of the packet's fate — the sender never
// learns it. Heartbeats and other gossip ride this path so that message
// loss produces genuine false suspicion in the failure detector.
func (r *Rank) SendBestEffort(dst, tag int, bytes uint64, onComplete func()) {
	if dst < 0 || dst >= len(r.world.ranks) {
		panic(fmt.Sprintf("mpi: send to invalid rank %d", dst))
	}
	w := r.world
	eng := w.engFor(r.id)
	r.stats.Sends++
	r.stats.BytesSent += bytes
	msg := Message{Src: r.id, Dst: dst, Tag: tag, Bytes: bytes, SentAt: eng.Now()}
	if w.faults == nil {
		w.post(r, msg, eng.Now()+w.net.transfer(bytes))
	} else {
		f := w.faults
		f.smu.Lock()
		rng := f.rngFor(r.id)
		f.stats.Attempts++
		at := eng.Now()
		if rng.Float64() < w.lossAt(r.id, dst, at) {
			f.stats.Drops++
			f.smu.Unlock()
		} else {
			arr := w.scaledTransfer(bytes, at) + f.jitterFrom(rng)
			dup := f.cfg.DupRate > 0 && rng.Float64() < f.cfg.DupRate
			var arr2 des.Time
			if dup {
				f.stats.DupDeliveries++
				arr2 = arr + w.net.Latency + f.jitterFrom(rng)
			}
			f.smu.Unlock()
			w.post(r, msg, at+arr)
			if dup {
				w.post(r, msg, at+arr2)
			}
		}
	}
	if onComplete != nil {
		eng.After(w.net.Latency, onComplete)
	}
}

// barrierMsgBytes is the notional size of a dissemination-barrier packet.
const barrierMsgBytes = 64

// barrierPenalty draws the extra barrier cost under faults: per
// dissemination round, the slowest participant's jitter, plus one
// retransmit round whenever any of the N packets in the round is lost.
// Drawn once per barrier, at release, by the last arriver — so every
// rank still releases at the same virtual instant. A barrier has no
// single source rank, and on sharded worlds which rank completes it is a
// host-scheduling artifact, so sharded draws come from a fresh stream
// keyed by the barrier generation; sequential worlds keep the shared
// stream and their historical timelines.
func (w *World) barrierPenalty(rounds, ranks int, at des.Time, gen uint64) des.Time {
	f := w.faults
	f.smu.Lock()
	defer f.smu.Unlock()
	rng := f.rng
	if f.perSrc != nil {
		rng = rand.New(rand.NewPCG(f.cfg.Seed, 0xBA22_1E20+gen))
	}
	rto := w.rto(barrierMsgBytes)
	var penalty des.Time
	for round := 0; round < rounds; round++ {
		lost := false
		var jmax des.Time
		for i := 0; i < ranks; i++ {
			f.stats.Attempts++
			if rng.Float64() < w.aggLossAt(at+penalty) {
				f.stats.Drops++
				lost = true
			} else if j := f.jitterFrom(rng); j > jmax {
				jmax = j
			}
		}
		penalty += jmax
		if lost {
			f.stats.CollectiveRetransmits++
			penalty += rto
		}
	}
	return penalty
}

// collectiveXfer is the analytic transfer cost of a collective's payload
// phase under the fault model: the fault-free cost, scaled by any active
// degradation window and by the retransmission inflation 1/(1-p) of the
// fabric loss rate. Deterministic (no draws) and identical for every
// rank, so collectives keep completing at one common virtual time; with
// no fault model it reduces to steps*transfer(bytes) exactly.
func (w *World) collectiveXfer(steps des.Time, bytes uint64, now des.Time) des.Time {
	base := steps * w.net.transfer(bytes)
	if w.faults == nil || base == 0 {
		return base
	}
	scaled := float64(base) * w.faults.slowFactorAt(now)
	if p := w.aggLossAt(now); p > 0 {
		scaled /= 1 - p
	}
	return des.Time(scaled)
}
