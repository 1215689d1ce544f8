// Package cluster models the system-level consequence the paper motivates
// in §1: large machines fail often (the projected BlueGene/L with 65,536
// processors was expected to fail every few hours), so jobs must
// checkpoint frequently, and the checkpoint interval trades overhead
// against lost work. The package provides an exponential failure model, a
// rollback-recovery run simulator, and the Young/Daly analytic optimum to
// validate it against.
package cluster

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/des"
)

// FailureModel describes independent exponential node failures.
type FailureModel struct {
	// NodeMTBF is the mean time between failures of one node.
	NodeMTBF des.Time
	// Nodes is the number of nodes the job spans; any node failing
	// kills the job (the common MPI fate-sharing assumption).
	Nodes int
}

// SystemMTBF returns the mean time between failures of the whole
// partition: NodeMTBF / Nodes.
func (f FailureModel) SystemMTBF() des.Time {
	if f.Nodes <= 0 {
		return 0
	}
	return f.NodeMTBF / des.Time(f.Nodes)
}

// Sample draws the time to the next system failure.
func (f FailureModel) Sample(rng *rand.Rand) des.Time {
	m := f.SystemMTBF().Seconds()
	if m <= 0 {
		return des.MaxTime
	}
	return des.FromSeconds(rng.ExpFloat64() * m)
}

// Job describes a long-running application under periodic coordinated
// checkpointing.
type Job struct {
	// Work is the total useful compute time required.
	Work des.Time
	// Interval is the checkpoint interval (useful work between
	// checkpoints).
	Interval des.Time
	// CkptCost is the time to take and commit one coordinated
	// checkpoint (volume / sink bandwidth).
	CkptCost des.Time
	// RestartCost is the time to detect the failure, restore the last
	// checkpoint and rejoin (downtime + restore read time).
	RestartCost des.Time
}

// Validate reports structural problems.
func (j Job) Validate() error {
	switch {
	case j.Work <= 0:
		return fmt.Errorf("cluster: job work must be positive")
	case j.Interval <= 0:
		return fmt.Errorf("cluster: checkpoint interval must be positive")
	case j.CkptCost < 0 || j.RestartCost < 0:
		return fmt.Errorf("cluster: costs must be non-negative")
	}
	return nil
}

// RunStats summarises one simulated run.
type RunStats struct {
	// Elapsed is the total wall time to finish the job.
	Elapsed des.Time
	// Failures is the number of failures survived.
	Failures uint64
	// Checkpoints is the number of completed checkpoints.
	Checkpoints uint64
	// LostWork is the total useful work rolled back.
	LostWork des.Time
	// Efficiency is Work / Elapsed.
	Efficiency float64
}

// Simulate runs the job to completion under the failure model, rolling
// back to the last completed checkpoint on every failure. The simulation
// is a direct timeline walk (no event queue needed): work proceeds in
// interval-sized segments, each followed by a checkpoint; a failure
// anywhere in a segment (or its checkpoint) discards that segment's work.
func Simulate(job Job, fm FailureModel, seed uint64) (RunStats, error) {
	if err := job.Validate(); err != nil {
		return RunStats{}, err
	}
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	var st RunStats
	var t des.Time // wall clock
	var done des.Time
	nextFail := fm.Sample(rng)
	for done < job.Work {
		seg := min(job.Interval, job.Work-done)
		needCkpt := done+seg < job.Work // final segment needs no checkpoint
		segTotal := seg
		if needCkpt {
			segTotal += job.CkptCost
		}
		if t+segTotal <= nextFail {
			// Segment (and checkpoint) completes.
			t += segTotal
			done += seg
			if needCkpt {
				st.Checkpoints++
			}
			continue
		}
		// Failure mid-segment: lose the work done in this segment.
		worked := nextFail - t
		if worked > seg {
			worked = seg // failure hit during the checkpoint
		}
		st.Failures++
		st.LostWork += worked
		t = nextFail + job.RestartCost
		nextFail = t + fm.Sample(rng)
	}
	st.Elapsed = t
	if t > 0 {
		st.Efficiency = job.Work.Seconds() / t.Seconds()
	}
	return st, nil
}

// SimulateMean averages Simulate over n seeds.
func SimulateMean(job Job, fm FailureModel, n int, seed uint64) (RunStats, error) {
	if n <= 0 {
		return RunStats{}, fmt.Errorf("cluster: need at least one trial")
	}
	var acc RunStats
	for i := 0; i < n; i++ {
		st, err := Simulate(job, fm, seed+uint64(i)*7919)
		if err != nil {
			return RunStats{}, err
		}
		acc.Elapsed += st.Elapsed
		acc.Failures += st.Failures
		acc.Checkpoints += st.Checkpoints
		acc.LostWork += st.LostWork
	}
	acc.Elapsed /= des.Time(n)
	acc.Failures /= uint64(n)
	acc.Checkpoints /= uint64(n)
	acc.LostWork /= des.Time(n)
	acc.Efficiency = job.Work.Seconds() / acc.Elapsed.Seconds()
	return acc, nil
}

// YoungInterval returns Young's first-order optimal checkpoint interval
// sqrt(2 * C * M) for checkpoint cost C and system MTBF M.
func YoungInterval(ckptCost, mtbf des.Time) des.Time {
	return des.FromSeconds(math.Sqrt(2 * ckptCost.Seconds() * mtbf.Seconds()))
}

// DalyInterval returns Daly's higher-order optimum,
// sqrt(2*C*M) * (1 + sqrt(C/(2M))/3 + C/(9*2M)) - C, clamped to be
// positive. For C << M it converges to Young's value.
func DalyInterval(ckptCost, mtbf des.Time) des.Time {
	c, m := ckptCost.Seconds(), mtbf.Seconds()
	if c <= 0 || m <= 0 {
		return 0
	}
	x := math.Sqrt(c / (2 * m))
	tau := math.Sqrt(2*c*m)*(1+x/3+x*x/9) - c
	if tau <= 0 {
		tau = c
	}
	return des.FromSeconds(tau)
}

// AnalyticEfficiency returns the first-order expected efficiency of
// periodic checkpointing: useful work per wall time
//
//	eff(tau) = tau / ((tau + C) + M*(e^((tau+C)/M) - 1) - (tau + C)) ...
//
// using the standard exponential-failure expectation: the expected wall
// time to complete one segment of useful length tau with checkpoint cost
// C, restart cost R and MTBF M is
//
//	E[T_seg] = (M + R) * (e^((tau+C)/M) - 1) * ... (Daly 2006)
//
// simplified to E[T_seg] = e^(R/M) * M * (e^((tau+C)/M) - 1), giving
// eff = tau / E[T_seg].
func AnalyticEfficiency(tau, ckptCost, restartCost, mtbf des.Time) float64 {
	t, c, r, m := tau.Seconds(), ckptCost.Seconds(), restartCost.Seconds(), mtbf.Seconds()
	if t <= 0 || m <= 0 {
		return 0
	}
	expected := math.Exp(r/m) * m * (math.Exp((t+c)/m) - 1)
	return t / expected
}

// OptimalIntervalBruteForce sweeps intervals between lo and hi (geometric
// steps) and returns the one maximising AnalyticEfficiency — used to
// cross-check the closed forms.
//
//lint:ignore deadexport reference oracle the closed-form interval tests compare against
func OptimalIntervalBruteForce(ckptCost, restartCost, mtbf, lo, hi des.Time, steps int) des.Time {
	if steps < 2 || lo <= 0 || hi <= lo {
		return 0
	}
	ratio := math.Pow(hi.Seconds()/lo.Seconds(), 1/float64(steps-1))
	best, bestEff := lo, -1.0
	tau := lo.Seconds()
	for i := 0; i < steps; i++ {
		tt := des.FromSeconds(tau)
		if eff := AnalyticEfficiency(tt, ckptCost, restartCost, mtbf); eff > bestEff {
			best, bestEff = tt, eff
		}
		tau *= ratio
	}
	return best
}
