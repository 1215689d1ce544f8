package mpi

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/mem"
)

// NewShardedWorld is NewWorld on engs[0] when engs names one engine per
// space and every one is the same engine, and an error otherwise.
// Kept only for the frozen benchmark/ harness; ROADMAP's "Benchmark v2" item deletes it.
func NewShardedWorld(engs []*des.Engine, net Network, mode DeliveryMode, spaces []*mem.AddressSpace) (*World, error) {
	if len(engs) != len(spaces) || len(engs) == 0 {
		return nil, fmt.Errorf("mpi: %d engines for %d ranks", len(engs), len(spaces))
	}
	for _, e := range engs {
		if e != engs[0] {
			return nil, fmt.Errorf("mpi: a world runs on one engine")
		}
	}
	return NewWorld(engs[0], net, mode, spaces)
}
