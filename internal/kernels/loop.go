package kernels

import (
	"fmt"

	"repro/internal/des"
)

// loop is the iteration loop every supervised computation in this
// package runs on: it implements Run, Stop and Iter of the supervisor's
// Computation contract once, and each computation supplies only what one
// iteration does. The callbacks are bound once per computation, so a
// warm iteration allocates nothing of its own.
//
// An iteration starts when the loop calls begin, which does the
// iteration's work (possibly across several events, as a halo exchange
// does) and ends by calling charge. The iteration completes, and Iter
// advances, when the compute time has elapsed after that: this is the
// one place a sweep in flight begins and ends. end (optional) runs at
// completion, before onIter.
//
// The span from begin to charge is the iteration's exchange: the time
// it waits on its halos before its compute time starts (zero for an
// iteration whose work is synchronous). It is measured here, so it is
// the one measurement solo and distributed computations share.
type loop struct {
	eng      *des.Engine
	computeT des.Time

	iter, target int
	stopped      bool
	onIter       func(iter int, next func())
	onDone       func()

	// begun is when the iteration in flight began, span its exchange
	// once charged; exchanged sums the completed iterations' spans.
	begun, span, exchanged des.Time

	begin, end        func()
	computed, proceed func()
}

// init binds the loop, resuming at iter completed iterations. It
// refuses a non-positive compute time (the DES has no implicit cost for
// host computation) and a negative iteration count.
func (l *loop) init(eng *des.Engine, computeT des.Time, iter int, begin, end func()) error {
	if computeT <= 0 {
		return fmt.Errorf("kernels: compute time must be positive")
	}
	if iter < 0 {
		return fmt.Errorf("kernels: negative iteration count %d", iter)
	}
	*l = loop{eng: eng, computeT: computeT, iter: iter, begin: begin, end: end}
	l.computed = l.complete
	l.proceed = l.next
	return nil
}

// Iter returns the completed iteration count.
func (l *loop) Iter() int { return l.iter }

// Exchanged returns the exchange time of the completed iterations: each
// one's span from beginning to charging its compute time. An iteration
// a Stop cut is not counted.
func (l *loop) Exchanged() des.Time { return l.exchanged }

// Stop makes all pending iteration callbacks no-ops — the failure path:
// the computation is abandoned, whatever events remain in the engine
// fire harmlessly against the dead instance.
func (l *loop) Stop() { l.stopped = true }

// Run executes iterations until the completed count reaches target, then
// calls onDone. onIter (optional) runs after every completed iteration —
// before the next one starts — with a continuation the callback must
// invoke to proceed (letting callers insert checkpoint pauses at the
// quiescent barrier point).
func (l *loop) Run(target int, onIter func(iter int, next func()), onDone func()) {
	l.target, l.onIter, l.onDone = target, onIter, onDone
	l.next()
}

// next begins iteration iter+1, or finishes the run at the target.
func (l *loop) next() {
	if l.stopped {
		return
	}
	if l.iter >= l.target {
		if l.onDone != nil {
			l.onDone()
		}
		return
	}
	l.begun = l.eng.Now()
	l.begin()
}

// charge hands the iteration back to the loop: its exchange ends and
// its compute time starts.
func (l *loop) charge() {
	l.span = l.eng.Now() - l.begun
	l.eng.After(l.computeT, l.computed)
}

// complete ends the iteration whose compute time has elapsed.
func (l *loop) complete() {
	if l.stopped {
		return
	}
	l.iter++
	l.exchanged += l.span
	if l.end != nil {
		l.end()
	}
	if l.onIter != nil {
		l.onIter(l.iter, l.proceed)
		return
	}
	l.next()
}
