package kernels

import (
	"fmt"

	"repro/internal/ckptspec"
	"repro/internal/des"
)

// SoloKernel is the face a single-address-space kernel presents to the
// supervisor: stepped iteration, solution export, and spec bindings.
// All of this package's single-space types (Stencil2D, SSOR, Wavefront,
// ADI, FFT) satisfy it: the Values accessors below give each a uniform
// way to export its full solution state for verification, and FFT
// aliases Pass as Step so the butterfly passes count as iterations.
type SoloKernel interface {
	Step() error
	Iter() int
	Values() ([]float64, error)
	ProtectionBindings() []ckptspec.Binding
}

// Solo supervises a single-space kernel as a one-rank computation: the
// iteration loop steps the kernel and charges the compute time, so solo
// kernels run under the same checkpoint/crash/restore/replay machinery
// as the distributed ones.
type Solo struct {
	loop
	k SoloKernel
}

// NewSolo wraps k, resuming at the iterations k has completed.
func NewSolo(eng *des.Engine, k SoloKernel, computeTime des.Time) (*Solo, error) {
	s := &Solo{k: k}
	if err := s.init(eng, computeTime, k.Iter(), s.step, nil); err != nil {
		return nil, err
	}
	return s, nil
}

// step begins an iteration: one kernel step, then the compute time.
func (s *Solo) step() {
	if err := s.k.Step(); err != nil {
		panic(fmt.Sprintf("kernels: solo step: %v", err))
	}
	s.charge()
}

// Gather returns the kernel's solution state.
func (s *Solo) Gather() ([]float64, error) { return s.k.Values() }

// ProtectionBindings implements the spec-binding contract; rank is
// always 0 for a solo computation.
func (s *Solo) ProtectionBindings(rank int) []ckptspec.Binding {
	if rank != 0 {
		return nil
	}
	return s.k.ProtectionBindings()
}

// Values returns the current solution buffer's contents.
func (s *Stencil2D) Values() ([]float64, error) {
	out := make([]float64, s.nx*s.ny)
	if err := s.Cur().Read(out, 0); err != nil {
		return nil, err
	}
	return out, nil
}

// Values returns the grid contents.
func (s *SSOR) Values() ([]float64, error) {
	out := make([]float64, s.nx*s.ny)
	if err := s.u.Read(out, 0); err != nil {
		return nil, err
	}
	return out, nil
}

// Values returns the grid contents.
func (w *Wavefront) Values() ([]float64, error) {
	out := make([]float64, w.nx*w.ny)
	if err := w.v.Read(out, 0); err != nil {
		return nil, err
	}
	return out, nil
}

// Values returns the grid contents.
func (a *ADI) Values() ([]float64, error) {
	out := make([]float64, a.nx*a.ny)
	if err := a.u.Read(out, 0); err != nil {
		return nil, err
	}
	return out, nil
}

// Step performs one butterfly pass, so the transform's log2(n) passes
// supervise like iterations.
func (f *FFT) Step() error { return f.Pass() }

// Iter returns completed butterfly passes.
func (f *FFT) Iter() int { return f.pass }

// Values returns the raw interleaved re/im contents of the buffer
// holding the latest pass.
func (f *FFT) Values() ([]float64, error) {
	src, _ := f.cur()
	out := make([]float64, 2*f.n)
	if err := src.Read(out, 0); err != nil {
		return nil, err
	}
	return out, nil
}
