package cluster

// Heartbeat failure detection, run *inside* the simulation over the
// (possibly flaky) MPI fabric. The paper — and PR 1's supervisor —
// model detection as a constant slice of RestartOverhead; real clusters
// detect failures by noticing silence, so detection latency is a
// distribution shaped by the heartbeat period, the declare-dead timeout
// and the loss rate of the links the heartbeats ride. Each rank gossips
// a small best-effort datagram to every peer per period and checks its
// peers' last-heard times on the same period; a peer silent for longer
// than the timeout is suspected. Suspecting a dead rank is a detection
// (the first observer wins and the latency is measured); suspecting a
// live one — consecutive heartbeats eaten by the fabric — is a false
// suspicion, counted and cleared by the next surviving heartbeat.

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/mpi"
)

// HeartbeatTag is the reserved message tag heartbeats travel on; it must
// not collide with application traffic (kernels use the 100/200 ranges).
const HeartbeatTag = 9471

// heartbeatBytes is the datagram size: a sender id, an incarnation and a
// timestamp fit in a cache line.
const heartbeatBytes = 64

// HeartbeatTimeout is how long a detector with the given heartbeat
// period waits in silence before it declares a peer dead: four periods.
// Shorter detects faster but false-suspects more under loss.
func HeartbeatTimeout(period des.Time) des.Time { return 4 * period }

// Detection records one confirmed failure detection.
type Detection struct {
	// Rank is the rank declared dead; Observer is the first surviving
	// rank whose timeout fired.
	Rank, Observer int
	// FailedAt is when the rank actually failed; DetectedAt when the
	// observer declared it. DetectedAt - FailedAt is the detection
	// latency the paper's constant model replaces.
	FailedAt, DetectedAt des.Time
}

// Latency returns the measured detection latency.
func (d Detection) Latency() des.Time { return d.DetectedAt - d.FailedAt }

// Detector runs heartbeat gossip and silence-checking across a world's
// ranks. OnDeath (if set) fires once per failed rank, at the virtual
// time the first surviving observer's timeout expires.
type Detector struct {
	eng    *des.Engine
	w      *mpi.World
	period des.Time

	// OnDeath observes each confirmed detection. Set before Start.
	OnDeath func(Detection)

	beaters  []*des.Ticker
	checkers []*des.Ticker
	// lastHeard[observer][peer] is the last time observer heard peer.
	lastHeard [][]des.Time
	// suspected[observer][peer] latches a fired suspicion until a fresh
	// heartbeat clears it (so one silence counts once per observer).
	suspected [][]bool
	failed    []bool
	failedAt  []des.Time
	declared  []bool
	falseSusp int
	started   bool
	stopped   bool
}

// NewDetector builds a detector over the world's ranks that gossips and
// checks every period and declares a peer dead after
// HeartbeatTimeout(period) of silence. Call Start to begin gossip.
func NewDetector(eng *des.Engine, w *mpi.World, period des.Time) (*Detector, error) {
	if period <= 0 {
		return nil, fmt.Errorf("cluster: heartbeat period must be positive")
	}
	n := w.Size()
	d := &Detector{
		eng: eng, w: w, period: period,
		lastHeard: make([][]des.Time, n),
		suspected: make([][]bool, n),
		failed:    make([]bool, n),
		failedAt:  make([]des.Time, n),
		declared:  make([]bool, n),
	}
	for i := range d.lastHeard {
		d.lastHeard[i] = make([]des.Time, n)
		d.suspected[i] = make([]bool, n)
	}
	return d, nil
}

// Start begins heartbeat gossip and silence checking on every rank.
func (d *Detector) Start() {
	if d.started {
		panic("cluster: detector already started")
	}
	d.started = true
	now := d.eng.Now()
	n := d.w.Size()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			d.lastHeard[i][j] = now
		}
		d.listen(i)
		i := i
		d.beaters = append(d.beaters, d.eng.NewTicker(d.period, func(des.Time) {
			d.beat(i)
		}))
		d.checkers = append(d.checkers, d.eng.NewTicker(d.period, func(at des.Time) {
			d.check(i, at)
		}))
	}
}

// listen posts a perpetual receive chain for heartbeats on rank i.
func (d *Detector) listen(i int) {
	d.w.Rank(i).Recv(mpi.AnySource, HeartbeatTag, 0, func(m mpi.Message) {
		if d.stopped {
			return
		}
		d.lastHeard[i][m.Src] = d.eng.Now()
		d.suspected[i][m.Src] = false
		d.listen(i)
	})
}

// beat gossips one round of heartbeats from rank i to every peer, over
// the genuinely lossy best-effort path.
func (d *Detector) beat(i int) {
	if d.stopped || d.failed[i] {
		return
	}
	for j := 0; j < d.w.Size(); j++ {
		if j != i {
			d.w.Rank(i).SendBestEffort(j, HeartbeatTag, heartbeatBytes, nil)
		}
	}
}

// check examines rank i's view of its peers for timeouts.
func (d *Detector) check(i int, now des.Time) {
	if d.stopped || d.failed[i] {
		return
	}
	for j := 0; j < d.w.Size(); j++ {
		if j == i || d.suspected[i][j] {
			continue
		}
		if now-d.lastHeard[i][j] <= HeartbeatTimeout(d.period) {
			continue
		}
		d.suspected[i][j] = true
		if !d.failed[j] {
			// The peer is alive; the fabric ate its heartbeats.
			d.falseSusp++
			continue
		}
		if d.declared[j] {
			continue
		}
		d.declared[j] = true
		det := Detection{Rank: j, Observer: i, FailedAt: d.failedAt[j], DetectedAt: now}
		if d.OnDeath != nil {
			d.OnDeath(det)
		}
	}
}

// MarkFailed records that rank actually failed now: its gossip and
// checking stop (the process is gone), and the surviving observers'
// timeouts will eventually declare it. Marking an already-failed rank is
// a no-op. It returns the number of still-live ranks.
func (d *Detector) MarkFailed(rank int) int {
	if !d.failed[rank] {
		d.failed[rank] = true
		d.failedAt[rank] = d.eng.Now()
		if d.started {
			d.beaters[rank].Stop()
			d.checkers[rank].Stop()
		}
	}
	live := 0
	for _, f := range d.failed {
		if !f {
			live++
		}
	}
	return live
}

// Failed reports whether rank has been marked failed.
func (d *Detector) Failed(rank int) bool { return d.failed[rank] }

// Stop halts all gossip and checking.
func (d *Detector) Stop() {
	if d.stopped {
		return
	}
	d.stopped = true
	for i := range d.beaters {
		d.beaters[i].Stop()
		d.checkers[i].Stop()
	}
}

// FalseSuspicions returns the count of live peers wrongly suspected.
func (d *Detector) FalseSuspicions() int { return d.falseSusp }
