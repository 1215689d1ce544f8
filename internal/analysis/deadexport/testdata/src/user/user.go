// Package user is the cross-package user of the deadexport golden package.
package user

import "golden.test/deadexport"

func Use() (int, error) {
	var s deadexport.Sizer = deadexport.Mem{}
	t := deadexport.T{}
	return t.UsedMethod() + s.Size(), deadexport.UsedElsewhere()
}
