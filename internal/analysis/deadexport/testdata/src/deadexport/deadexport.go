// Package deadexport is the golden package for the deadexport analyzer.
// Its users are golden.test/user (reachable from the program cmd/app)
// and ../benchmark (a frozen directory read by name only).
package deadexport

import "fmt"

// --- flagged: no program reaches these ---

func Unused() {} // want `exported function Unused is reachable from no program \(cmd/, benchmark/\); delete it`

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

// Factory is named only by its own methods' receivers; satisfying Sizer
// does not help a type nothing constructs. One finding, not one per
// method.
type Factory struct{} // want `exported type Factory`

func (Factory) Size() int { return 0 }
func (Factory) Other()    {}

// OnlyFromDead is called by user.Abandoned, which no program reaches.
func OnlyFromDead(o Options) { // want `exported function OnlyFromDead`
	viaHelper()
}

// OnlyViaHelper hangs off the same dead caller one unexported hop on.
func OnlyViaHelper() {} // want `exported function OnlyViaHelper`

func viaHelper() { OnlyViaHelper() }

// T is alive (user constructs one); its methods are judged one by one.
type T struct{ n int }

func (t T) UnusedMethod() int { return t.n } // want `exported method UnusedMethod`

// Options is alive; its fields are judged one by one.
type Options struct {
	NeverSet  int // want `exported field Options.NeverSet is set by no reachable non-test code`
	SetByDead int // want `exported field Options.SetByDead`

	//lint:ignore deadexport stale: user sets Keyed by key, so this suppresses nothing // want `unused //lint:ignore: check "deadexport"`
	Keyed  int
	Counts []int // user only ever does o.Counts[i]++
	Nested struct {
		Deep int // user assigns o.Nested.Deep, which sets both
	}
	Addr       int // user takes its address
	Internal   int // set only by Configure below, which user calls
	BenchField int // set only by ../benchmark/bench_test.go

	// Fields withDefaults fills. A zero-value default is not a setter.
	Defaulted int  // want `exported field Options.Defaulted is set by no reachable non-test code`
	Chosen    int  // user sets it; the default also fills it
	Derived   int  // want `exported field Options.Derived`
	Net       Link // want `exported field Options.Net`
	Elsed     int  // its fill has an else: a write like any other
	Capped    int  // a clamp is not a zero compare: a write like any other
	// Injected is kept for tests on purpose, and says so.
	//
	//lint:ignore deadexport fault injector the golden tests drive
	Injected int

	unset int // unexported: not this check's business
}

// Link is filled whole when its Latency reads zero (a prefix fill).
type Link struct{ Latency int }

// withDefaults fills zero fields; Configure calls it.
func (o Options) withDefaults() Options {
	if o.Defaulted == 0 {
		o.Defaulted = 3
	}
	if o.Chosen == 0 {
		o.Chosen = 4
	}
	if o.Derived == 0 {
		o.Derived = o.Chosen // derived, but still a default
	}
	if o.Net.Latency == 0 {
		o.Net = Link{Latency: 5}
	}
	if o.Elsed == 0 {
		o.Elsed = 6
	} else {
		o.unset++
	}
	if o.Capped > 10 {
		o.Capped = 10
	}
	return o
}

// Pair is only ever built positionally, which sets every field.
type Pair struct{ A, B int }

// Configure is called from package user.
func Configure(o *Options) {
	*o = o.withDefaults()
	o.Internal = o.unset
}

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

// Shape is satisfied by Square only with both halves: Area promoted from
// the unexported base it embeds, Name declared on Square itself. user
// calls both only through the interface. A promoted method no interface
// asks for is judged like any other.
type Shape interface {
	Area() int
	Name() string
}

type Square struct{ base }

func (Square) Name() string { return "square" }

type base struct{ side int }

func (b base) Area() int      { return b.side * b.side }
func (b base) Perimeter() int { return 4 * b.side } // want `exported method Perimeter`

// Err reaches package errors through Error and the unnamed
// interface{ Unwrap() error }.
type Err struct{ cause error }

func (e *Err) Error() string { return "golden: " + e.cause.Error() }
func (e *Err) Unwrap() error { return e.cause }

// UsedElsewhere is called from package user.
func UsedElsewhere() *Err { return &Err{cause: fmt.Errorf("x")} }

// UsedHere is called only inside this package, by an init.
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
