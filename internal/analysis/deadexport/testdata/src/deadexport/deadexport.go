// Package deadexport is the golden package for the deadexport analyzer.
// Its users are golden.test/user (a type-checked importer) and
// ../benchmark (a frozen directory read by name only).
package deadexport

import "fmt"

// --- flagged: nothing outside tests refers to these ---

func Unused() {} // want `exported function Unused is referenced by no non-test code`

const UnusedConst = 1 // want `exported const UnusedConst`

var UnusedVar int // want `exported var UnusedVar`

type UnusedType struct{} // want `exported type UnusedType`

// Recursive is referenced, but only by itself.
func Recursive(n int) int { // want `exported function Recursive`
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

// T is alive (user constructs one); its methods are judged one by one.
type T struct{ n int }

func (t T) UnusedMethod() int { return t.n } // want `exported method UnusedMethod`

// --- not flagged ---

// UsedMethod is called from package user.
func (t T) UsedMethod() int { return t.n }

// String is never called by name, but T satisfies fmt.Stringer through it.
func (t T) String() string { return fmt.Sprint(t.n) }

// Sizer is a module-local interface; Mem satisfies it through Size, and
// user calls Size only through the interface.
type Sizer interface{ Size() int }

type Mem struct{}

func (Mem) Size() int { return 0 }

// Err reaches package errors through Error and the unnamed
// interface{ Unwrap() error }.
type Err struct{ cause error }

func (e *Err) Error() string { return "golden: " + e.cause.Error() }
func (e *Err) Unwrap() error { return e.cause }

// UsedElsewhere is called from package user.
func UsedElsewhere() *Err { return &Err{cause: fmt.Errorf("x")} }

// UsedHere is called only inside this package — alive, if over-exported.
func UsedHere() {}

func init() { UsedHere() }

// BenchOnly is mentioned by ../benchmark/bench_test.go and nowhere else.
func BenchOnly() {}

// Oracle is kept for tests on purpose, and says so.
//
//lint:ignore deadexport reference oracle the golden tests compare against
func Oracle() {}

// unexported and unused: not this check's business.
func helper() {}
