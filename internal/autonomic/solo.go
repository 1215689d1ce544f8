package autonomic

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/mpi"
)

// SoloFactory supervises a single-space kernel on rank 0 as a
// kernels.Solo, so solo kernels run under the same checkpoint/crash/
// restore/replay machinery as the MPI workloads — the vehicle for
// per-kernel spec ablations.
type SoloFactory struct {
	// ComputeTime is the virtual cost of one step.
	ComputeTime des.Time
	// Build constructs the kernel fresh in space.
	Build func(space *mem.AddressSpace) (kernels.SoloKernel, error)
	// Rebind re-attaches the kernel over a restored space at iter.
	Rebind func(space *mem.AddressSpace, iter int) (kernels.SoloKernel, error)
}

// New implements Factory.
func (f SoloFactory) New(eng *des.Engine, world *mpi.World) (Computation, error) {
	k, err := f.Build(world.Rank(0).Space())
	if err != nil {
		return nil, err
	}
	return kernels.NewSolo(eng, k, f.ComputeTime)
}

// Attach implements Factory.
func (f SoloFactory) Attach(eng *des.Engine, world *mpi.World, iter int) (Computation, error) {
	if f.Rebind == nil {
		return nil, fmt.Errorf("autonomic: solo factory has no Rebind")
	}
	k, err := f.Rebind(world.Rank(0).Space(), iter)
	if err != nil {
		return nil, err
	}
	return kernels.NewSolo(eng, k, f.ComputeTime)
}
