package mpi

// Flaky interconnect: a seeded, deterministic fault model layered under
// the Network cost model. Real clusters drop, duplicate and delay
// packets — the QsNet hardware the paper ran on retransmits at the link
// level, and MPI implementations above lossy transports run an
// ack/retransmit protocol. This file models both sides:
//
//   - A NetFaultConfig describes fabric-wide loss probability, duplication,
//     delay jitter and timed degradation windows (a flaky cable, a
//     congested switch). All randomness comes from one seeded PCG owned
//     by the World, so a given seed reproduces the exact packet fate
//     sequence — and therefore the exact virtual timeline — every run.
//
//   - Plain Send/SendData and one-sided Put keep their exactly-once
//     contract by riding an ack/retransmit-with-backoff (ARQ) schedule
//     (Rank.inject): the full retransmit
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

	"repro/internal/des"
)

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
}

// netFaults is the World's installed fault state. Every packet fate is
// drawn from the one seeded rng, in event order.
type netFaults struct {
	cfg   NetFaultConfig
	rng   *rand.Rand
	stats NetFaultStats
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
	w.faults = &netFaults{cfg: cfg, rng: rand.New(rand.NewPCG(cfg.Seed, 0xF1A4))}
	return nil
}

// faultStats returns a copy of the fault-model counters (zero value when
// no model is installed).
func (w *World) faultStats() NetFaultStats {
	if w.faults == nil {
		return NetFaultStats{}
	}
	return w.faults.stats
}

// lossAt returns the effective per-packet loss probability at time at,
// the same on every link.
func (f *netFaults) lossAt(at des.Time) float64 {
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

// jitter draws one packet's extra delay.
func (f *netFaults) jitter() des.Time {
	if f.cfg.JitterMax <= 0 {
		return 0
	}
	return des.Time(f.rng.Int64N(int64(f.cfg.JitterMax)))
}

// rto returns the initial retransmission timeout for a message size; it
// doubles per attempt (capped).
func (w *World) rto(bytes uint64) des.Time { return 4 * w.net.transfer(bytes) }

// planARQ draws the complete ack/retransmit schedule of one
// point-to-point message at injection time. It returns the offsets (from
// now) of the first surviving data arrival and of the sender's first
// surviving ack; the plan always ends delivered and acked.
func (w *World) planARQ(bytes uint64) (deliver, ack des.Time) {
	f := w.faults
	now := w.eng.Now()
	rto := w.rto(bytes)
	var start des.Time
	var delivered, acked bool
	for k := 0; k < reliableHardCap; k++ {
		f.stats.Attempts++
		if k > 0 {
			f.stats.Retransmits++
		}
		at := now + start
		if f.rng.Float64() < f.lossAt(at) {
			f.stats.Drops++
		} else {
			arr := start + w.scaledTransfer(bytes, at) + f.jitter()
			if !delivered {
				deliver, delivered = arr, true
			}
			// The ack rides the reverse link.
			if f.rng.Float64() < f.lossAt(now+arr) {
				f.stats.Drops++
			} else {
				ack, acked = arr+w.net.Latency+f.jitter(), true
				break
			}
		}
		start += rto << uint(min(k, 6))
	}
	if !delivered {
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
func (f *netFaults) suppressDup() {
	if f.cfg.DupRate > 0 && f.rng.Float64() < f.cfg.DupRate {
		f.stats.DupDeliveries++
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
	eng := w.eng
	r.stats.Sends++
	r.stats.BytesSent += bytes
	msg := Message{Src: r.id, Dst: dst, Tag: tag, Bytes: bytes, SentAt: eng.Now()}
	if w.faults == nil {
		w.post(r, msg, eng.Now()+w.net.transfer(bytes))
	} else {
		f := w.faults
		f.stats.Attempts++
		at := eng.Now()
		if f.rng.Float64() < f.lossAt(at) {
			f.stats.Drops++
		} else {
			arr := w.scaledTransfer(bytes, at) + f.jitter()
			w.post(r, msg, at+arr)
			if f.cfg.DupRate > 0 && f.rng.Float64() < f.cfg.DupRate {
				f.stats.DupDeliveries++
				w.post(r, msg, at+arr+w.net.Latency+f.jitter())
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
// rank still releases at the same virtual instant.
func (w *World) barrierPenalty(rounds, ranks int, at des.Time) des.Time {
	f := w.faults
	rto := w.rto(barrierMsgBytes)
	var penalty des.Time
	for round := 0; round < rounds; round++ {
		lost := false
		var jmax des.Time
		for i := 0; i < ranks; i++ {
			f.stats.Attempts++
			if f.rng.Float64() < f.lossAt(at+penalty) {
				f.stats.Drops++
				lost = true
			} else if j := f.jitter(); j > jmax {
				jmax = j
			}
		}
		penalty += jmax
		if lost {
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
	if p := w.faults.lossAt(now); p > 0 {
		scaled /= 1 - p
	}
	return des.Time(scaled)
}
