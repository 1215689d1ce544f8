// A stand-in for the repo's frozen benchmark/ directory: a nested module
// the loader does not type-check, whose identifiers count as uses by name.
package main

import (
	"testing"

	"golden.test/deadexport"
)

func TestBench(t *testing.T) {
	deadexport.BenchOnly()
	_ = deadexport.Options{BenchField: 1}
}
