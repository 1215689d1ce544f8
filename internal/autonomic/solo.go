package autonomic

import (
	"repro/internal/des"
	"repro/internal/kernels"
	"repro/internal/mpi"
)

// SoloFactory supervises a named single-space kernel on rank 0 as a
// kernels.Solo, so solo kernels run under the same checkpoint/crash/
// restore/replay machinery as the MPI workloads — the vehicle for
// per-kernel spec ablations. It is a value: its fields are the whole
// kernel.
type SoloFactory struct {
	// Kernel names the kernel: stencil, ssor, wavefront, adi or fft
	// (see kernels.NewSoloKernel).
	Kernel string
	// N sizes it: an N×N grid, or N points for fft.
	N int
	// ComputeTime is the virtual cost of one step.
	ComputeTime des.Time
}

// New implements Factory.
func (f SoloFactory) New(eng *des.Engine, world *mpi.World) (Computation, error) {
	k, err := kernels.NewSoloKernel(f.Kernel, world.Rank(0).Space(), f.N)
	if err != nil {
		return nil, err
	}
	return kernels.NewSolo(eng, k, f.ComputeTime)
}

// Attach implements Factory.
func (f SoloFactory) Attach(eng *des.Engine, world *mpi.World, iter int) (Computation, error) {
	k, err := kernels.AttachSoloKernel(f.Kernel, world.Rank(0).Space(), f.N, iter)
	if err != nil {
		return nil, err
	}
	return kernels.NewSolo(eng, k, f.ComputeTime)
}
