package chaos

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/des"
	"repro/internal/mpi"
	"repro/internal/storage"
)

// Stats counts what the driver actually injected — the ground truth the
// equivalence validator checks its lost-work accounting against.
type Stats struct {
	// Crashes counts node-kill events fired.
	Crashes int
	// CommitCrashes counts commit rounds the driver aimed a kill at.
	CommitCrashes int
	// DrainCrashes counts drain rounds killed at a phase entry.
	DrainCrashes int
	// DomainCrashes counts commit rounds that took a whole failure
	// domain down mid-commit.
	DomainCrashes int
	// BitFlips counts stored payloads corrupted; BitFlipMisses counts
	// flip instants that found nothing to corrupt (empty store or a
	// store that refused the read-modify-write).
	BitFlips, BitFlipMisses int
	// OutageRefusals and BrownoutDrops count storage operations the
	// timed fault windows rejected.
	OutageRefusals, BrownoutDrops uint64
}

// StoreStats counts what one wrapped store saw: every operation the
// timed windows let through, and what its decay line did to them.
type StoreStats struct {
	Ops uint64
	// Transients counts operations refused with storage.ErrTransient.
	Transients uint64
	// TornWrites counts Puts that persisted only a prefix; Corruptions
	// counts Puts that persisted a copy with one bit flipped.
	TornWrites, Corruptions uint64
	// Unavailable counts operations refused once die-after ran out.
	Unavailable uint64
}

// Driver binds a compiled Plan to a des.Engine and drives the existing
// per-layer injectors through one interface. One driver serves one run:
// it makes every random draw the run's faults take, from three streams
// seeded by the plan's Seed, each drawn in the engine's deterministic
// event order. The streams and their sources live in d. A storage-decay
// line draws from its own store's stream instead (faultStore.rng).
type Driver struct {
	eng  *des.Engine
	plan *Plan
	// rng places commit and domain crashes, picks bit flips and rolls
	// storage brownouts; fail draws the Poisson clock's delays and the
	// ranks failures take; parity picks the bit a parity flip flips.
	rng, fail, parity       rand.Rand
	pcg, failPCG, parityPCG rand.PCG

	stats      Stats
	commitUsed []bool
	drainUsed  []bool
	domainUsed []bool
	flipUsed   []bool        // parity-flip windows consumed
	stores     []*faultStore // wrapped stores, in WrapStore call order
}

// NewDriver binds plan to eng. The engine must be fresh (virtual time
// zero) so the plan's absolute instants are all still ahead.
func NewDriver(eng *des.Engine, plan *Plan) *Driver {
	if eng == nil || plan == nil {
		panic("chaos: NewDriver needs an engine and a compiled plan")
	}
	d := &Driver{
		eng:        eng,
		plan:       plan,
		pcg:        *rand.NewPCG(plan.Seed, 0xD21F),
		failPCG:    *rand.NewPCG(plan.Seed, 0xA57),
		parityPCG:  *rand.NewPCG(plan.Seed, 0xEC2),
		commitUsed: make([]bool, len(plan.CommitCrashes)),
		drainUsed:  make([]bool, len(plan.DrainCrashes)),
		domainUsed: make([]bool, len(plan.DomainCrashes)),
		flipUsed:   make([]bool, len(plan.ParityFlips)),
	}
	d.rng = *rand.New(&d.pcg)
	d.fail = *rand.New(&d.failPCG)
	d.parity = *rand.New(&d.parityPCG)
	return d
}

// Stats returns a copy of the injection counters.
func (d *Driver) Stats() Stats { return d.stats }

// StoreStats returns a copy of wrapped store i's counters (i counts
// WrapStore calls from 0).
func (d *Driver) StoreStats(i int) StoreStats { return d.stores[i].stats }

// Wraps reports whether WrapStore has wrapped every store the plan's
// storage lines strike: store 0 for the timed lines, a decay line's own.
func (d *Driver) Wraps() bool {
	if len(d.stores) == 0 && d.plan.HitsStorage() {
		return false
	}
	for _, dc := range d.plan.Decays {
		if dc.Store >= len(d.stores) {
			return false
		}
	}
	return true
}

// StartCrashes schedules every planned node-kill instant; each fires
// kill. Call once, before the engine runs.
func (d *Driver) StartCrashes(kill func()) {
	if kill == nil {
		panic("chaos: StartCrashes with nil kill callback")
	}
	for _, at := range d.plan.Crashes {
		if at < d.eng.Now() {
			continue // plan instant already in the past: unreachable on a fresh engine
		}
		d.eng.Schedule(at, func() {
			d.stats.Crashes++
			kill()
		})
	}
}

// CommitCrashDelay asks whether a checkpoint commit opening at now,
// whose window closes at lastAck, should be killed mid-commit. Under
// two-phase commit lastAck is the last prepare ack, the earliest instant
// the COMMIT marker could be written, so the resulting abort exercises
// the torn-line recovery path at an adversarial instant. It consumes at
// most one planned commit-crash window per call and returns a seeded
// delay strictly inside [0, lastAck-now).
func (d *Driver) CommitCrashDelay(now, lastAck des.Time) (des.Time, bool) {
	if consume(d.commitUsed, func(i int) bool { return d.plan.CommitCrashes[i].contains(now) }) < 0 {
		return 0, false
	}
	d.stats.CommitCrashes++
	return d.delayInside(lastAck - now), true
}

// DomainCrashDelay asks whether a checkpoint-commit pause opening at now
// and resolving at pauseEnd should take a whole failure domain with it.
// It consumes at most one planned domain-crash window per call and
// returns the domain's name plus a seeded delay strictly inside
// [0, pauseEnd-now) — mid-commit, before the line's parity placement
// lands — so the correlated loss hits the hierarchy at its most
// adversarial instant.
func (d *Driver) DomainCrashDelay(now, pauseEnd des.Time) (string, des.Time, bool) {
	i := consume(d.domainUsed, func(i int) bool { return d.plan.DomainCrashes[i].contains(now) })
	if i < 0 {
		return "", 0, false
	}
	d.stats.DomainCrashes++
	return d.plan.DomainCrashes[i].Domain, d.delayInside(pauseEnd - now), true
}

// delayInside draws a seeded delay strictly inside [0, span); an empty
// span gives zero.
func (d *Driver) delayInside(span des.Time) des.Time {
	if span <= 0 {
		return 0
	}
	return des.Time(d.rng.Float64() * float64(span))
}

// DrainCrashHit asks whether the drain protocol's entry into phase p at
// virtual time now should kill the node. It consumes at most one planned
// drain-crash window per call, so a schedule with Count n kills n drain
// rounds at the same phase.
func (d *Driver) DrainCrashHit(p mpi.DrainPhase, now des.Time) bool {
	if consume(d.drainUsed, func(i int) bool {
		w := d.plan.DrainCrashes[i]
		return w.Phase == p && w.contains(now)
	}) < 0 {
		return false
	}
	d.stats.DrainCrashes++
	return true
}

// ParityFlipHit asks whether the parity a multi-level hierarchy placed
// at virtual time now should be bit-flipped at rest, and on a hit
// returns the stream that picks the bit. It consumes at most one planned
// parity-flip window per call, so a schedule with Count n flips n lines'
// parity.
func (d *Driver) ParityFlipHit(now des.Time) (*rand.Rand, bool) {
	if consume(d.flipUsed, func(i int) bool { return d.plan.ParityFlips[i].contains(now) }) < 0 {
		return nil, false
	}
	return &d.parity, true
}

// NextFailure draws the delay to the plan's Poisson clock's next
// failure, never under a millisecond; ok is false when the plan has no
// clock.
func (d *Driver) NextFailure() (delay des.Time, ok bool) {
	if d.plan.CrashMean <= 0 {
		return 0, false
	}
	return max(des.FromSeconds(d.fail.ExpFloat64()*d.plan.CrashMean.Seconds()), des.Millisecond), true
}

// Victim draws the rank in [0, ranks) a failure takes.
func (d *Driver) Victim(ranks int) int { return d.fail.IntN(ranks) }

// consume marks and returns the first planned entry i not yet used that
// hit accepts, or -1: each planned entry fires at most once.
func consume(used []bool, hit func(i int) bool) int {
	for i := range used {
		if !used[i] && hit(i) {
			used[i] = true
			return i
		}
	}
	return -1
}

// Plan returns the compiled plan the driver executes. The supervisor
// reads the interconnect fault model from it.
func (d *Driver) Plan() *Plan { return d.plan }

// WrapStore interposes the plan's storage faults on inner; call i
// wraps store i. Store 0 takes the timed lines: outage windows refuse
// every operation with storage.ErrUnavailable, brownout windows drop a
// seeded fraction with storage.ErrTransient, and bit flips replace a
// stored value with a flipped copy through inner itself, below whatever
// integrity or retry layers the caller stacks on top — silent at-rest
// corruption that only an integrity envelope can surface. A
// storage-decay line strikes the store it names, after the timed
// windows let an operation through.
func (d *Driver) WrapStore(inner storage.Store) storage.Store {
	s := &faultStore{d: d, inner: inner, timed: len(d.stores) == 0}
	for _, dc := range d.plan.Decays {
		if dc.Store == len(d.stores) {
			s.decay, s.pcg = dc, *rand.NewPCG(dc.Seed, 0xFA17)
			s.rng = *rand.New(&s.pcg)
		}
	}
	d.stores = append(d.stores, s)
	if s.timed {
		for _, at := range d.plan.BitFlips {
			if at < d.eng.Now() {
				continue
			}
			d.eng.Schedule(at, d.flipBit)
		}
	}
	return s
}

// flipBit corrupts one seeded bit of one seeded stored payload of store
// 0, chosen uniformly over the store's (sorted, deterministic) key
// listing at the flip instant. A payload already enveloped by an
// IntegrityStore above the wrap point is corrupted envelope and all, so
// read-back fails the CRC — exactly how at-rest rot surfaces in a
// hardened tier.
func (d *Driver) flipBit() {
	target := d.stores[0].inner
	keys, err := target.Keys()
	if err != nil || len(keys) == 0 {
		d.stats.BitFlipMisses++
		return
	}
	key := keys[d.rng.IntN(len(keys))]
	data, err := target.Get(key)
	if err != nil || len(data) == 0 {
		d.stats.BitFlipMisses++
		return
	}
	if err := target.Put(key, storage.FlipBit(data, d.rng.IntN(len(data)*8))); err != nil {
		d.stats.BitFlipMisses++
		return
	}
	d.stats.BitFlips++
}

// faultStore is the storage.Store wrapper WrapStore returns. Every
// operation first meets the plan's outage and brownout windows, against
// the engine's virtual clock (store 0 only), then the store's decay
// line, if it has one.
type faultStore struct {
	d     *Driver
	inner storage.Store
	timed bool // store 0: the timed lines strike it
	// decay is the store's storage-decay line (zero Kind when none); rng
	// is its stream, drawn only by it.
	decay Spec
	pcg   rand.PCG
	rng   rand.Rand
	stats StoreStats
}

// check admits one operation: the timed windows, then the op count,
// die-after and, when rolled (Put, Get and Delete), the transient roll.
func (s *faultStore) check(op string, rolled bool) error {
	if s.timed {
		now := s.d.eng.Now()
		for _, w := range s.d.plan.Outages {
			if w.contains(now) {
				s.d.stats.OutageRefusals++
				return fmt.Errorf("chaos: %s at %v inside storage outage [%v, %v): %w",
					op, now, w.From, w.To, storage.ErrUnavailable)
			}
		}
		for _, w := range s.d.plan.Brownouts {
			if w.contains(now) && s.d.rng.Float64() < w.Rate {
				s.d.stats.BrownoutDrops++
				return fmt.Errorf("chaos: %s at %v dropped by storage brownout: %w", op, now, storage.ErrTransient)
			}
		}
	}
	s.stats.Ops++
	switch {
	case s.decay.DieAfter > 0 && s.stats.Ops > uint64(s.decay.DieAfter):
		s.stats.Unavailable++
		return errDead
	case rolled && s.roll(s.decay.Transient):
		s.stats.Transients++
		return errDropped
	}
	return nil
}

// A decay refusal formats nothing per call: the layers above name the
// key, and a dead device answers every call the same.
var (
	errDead    = fmt.Errorf("chaos: storage decay: the store died after its die-after operations: %w", storage.ErrUnavailable)
	errDropped = fmt.Errorf("chaos: storage decay dropped the operation: %w", storage.ErrTransient)
)

// roll draws one decay fault; a zero rate draws nothing.
func (s *faultStore) roll(rate float64) bool { return rate > 0 && s.rng.Float64() < rate }

// Put implements storage.Store.
func (s *faultStore) Put(key string, data []byte) error { return s.put(key, data, storage.Store.Put) }

// PutOwned implements storage.OwnedPutter: the faults apply as for Put,
// and ownership of whatever reaches inner passes through to it.
func (s *faultStore) PutOwned(key string, data []byte) error {
	return s.put(key, data, storage.PutOwned)
}

// put is Put and PutOwned: after the gate, a torn roll persists a
// strict prefix and reports success — the sink lied — and then a
// corrupt roll persists a copy with one seeded bit flipped. The
// prefix's capacity is clipped, so a sealing layer below cannot write
// its envelope over payload bytes a sibling keeps.
func (s *faultStore) put(key string, data []byte, put func(storage.Store, string, []byte) error) error {
	if err := s.check("put", true); err != nil {
		return err
	}
	if s.roll(s.decay.Torn) {
		s.stats.TornWrites++
		n := len(data) / 2
		return put(s.inner, key, data[:n:n])
	}
	if s.roll(s.decay.Corrupt) && len(data) > 0 {
		s.stats.Corruptions++
		return put(s.inner, key, storage.FlipBit(data, s.rng.IntN(len(data)*8)))
	}
	return put(s.inner, key, data)
}

// Get implements storage.Store.
func (s *faultStore) Get(key string) ([]byte, error) {
	if err := s.check("get", true); err != nil {
		return nil, err
	}
	return s.inner.Get(key)
}

// Delete implements storage.Store.
func (s *faultStore) Delete(key string) error {
	if err := s.check("delete", true); err != nil {
		return err
	}
	return s.inner.Delete(key)
}

// Keys implements storage.Store. Metadata reads meet the windows and
// die-after but not the decay rates: listings are cheap and local.
func (s *faultStore) Keys() ([]string, error) {
	if err := s.check("keys", false); err != nil {
		return nil, err
	}
	return s.inner.Keys()
}

// Size implements storage.Store.
func (s *faultStore) Size() (uint64, error) {
	if err := s.check("size", false); err != nil {
		return 0, err
	}
	return s.inner.Size()
}
