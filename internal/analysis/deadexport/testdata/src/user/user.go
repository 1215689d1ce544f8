// Package user is the cross-package user of the deadexport golden
// package, itself reachable from cmd/app.
package user

import "golden.test/deadexport"

func Use() (int, error) {
	var s deadexport.Sizer = deadexport.Mem{}
	t := deadexport.T{}
	o := deadexport.Options{Keyed: 1, Chosen: 2}
	o.Counts[0]++
	o.Nested.Deep = 2
	p := &o.Addr
	pair := deadexport.Pair{1, 2}
	deadexport.Configure(&o)
	return t.UsedMethod() + s.Size() + *p + pair.A + o.NeverSet + o.SetByDead, deadexport.UsedElsewhere()
}

// Abandoned is what is left of a caller nothing calls any more: its
// references keep nothing alive.
func Abandoned() {
	o := deadexport.Options{SetByDead: 1}
	deadexport.OnlyFromDead(o)
}
