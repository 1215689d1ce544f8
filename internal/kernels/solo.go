package kernels

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ckptspec"
	"repro/internal/des"
	"repro/internal/mem"
)

// SoloKernel is the face a single-address-space kernel presents to the
// supervisor: stepped iteration, solution export, and spec bindings.
// All of this package's single-space types (Stencil2D, SSOR, Wavefront,
// ADI, FFT) satisfy it: the Values accessors below give each a uniform
// way to export its full solution state for verification, and an FFT
// step is one butterfly pass, so the passes count as iterations.
type SoloKernel interface {
	Step() error
	Iter() int
	Values() ([]float64, error)
	ProtectionBindings() []ckptspec.Binding
}

// soloKernels is the one table of the single-space kernels a run names
// (NewSoloKernel). Each is sized by one n, an n×n grid or n points for
// the FFT; every other parameter is fixed: boundary, seed and initial
// value 1, SSOR ω 1.2, ADI λ 0.5, and the FFT signal
// complex(i%31-15, i%7-3). An entry builds its kernel at iteration iter
// over src's arenas, which NewSoloKernel maps and AttachSoloKernel finds
// restored.
var soloKernels = map[string]func(src *arenas, n, iter int) (SoloKernel, error){
	"stencil":   func(src *arenas, n, iter int) (SoloKernel, error) { return newStencil2D(src, n, n, iter, 1) },
	"ssor":      func(src *arenas, n, iter int) (SoloKernel, error) { return newSSOR(src, n, n, iter, 1, soloOmega) },
	"wavefront": func(src *arenas, n, iter int) (SoloKernel, error) { return newWavefront(src, n, n, iter, 1) },
	"adi":       func(src *arenas, n, iter int) (SoloKernel, error) { return newADI(src, n, n, iter, 1, soloLambda) },
	"fft": func(src *arenas, n, iter int) (SoloKernel, error) {
		f, err := newFFT(src, n, iter)
		if err != nil || src.restored {
			return f, err
		}
		sig := make([]complex128, n)
		for i := range sig {
			sig[i] = complex(float64(i%31)-15, float64(i%7)-3)
		}
		return f, f.load(sig)
	},
}

// The named SSOR's relaxation factor and the named ADI's implicit step.
const soloOmega, soloLambda = 1.2, 0.5

// NewSoloKernel builds the named single-space kernel (adi, fft, ssor,
// stencil or wavefront) fresh in space, sized by n.
func NewSoloKernel(name string, space *mem.AddressSpace, n int) (SoloKernel, error) {
	return soloKernel(name, freshArenas(space), n, 0)
}

// AttachSoloKernel rebuilds the named kernel, sized by n, over a
// restored space at iteration iter.
func AttachSoloKernel(name string, space *mem.AddressSpace, n, iter int) (SoloKernel, error) {
	return soloKernel(name, restoredArenas(space), n, iter)
}

// soloKernel builds the named kernel over src's arenas, binding all of
// them.
func soloKernel(name string, src *arenas, n, iter int) (SoloKernel, error) {
	build, ok := soloKernels[name]
	if !ok {
		return nil, unknownSolo(name)
	}
	k, err := build(src, n, iter)
	if err == nil {
		err = src.bound()
	}
	if err != nil {
		return nil, err
	}
	return k, nil
}

// unknownSolo refuses a name soloKernels lacks, listing the ones it has.
func unknownSolo(name string) error {
	var names []string
	for n := range soloKernels {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Errorf("kernels: unknown solo kernel %q (have %s)", name, strings.Join(names, ", "))
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
func (s *Stencil2D) Values() ([]float64, error) { return s.Cur().values() }

// Values returns the grid contents.
func (s *SSOR) Values() ([]float64, error) { return s.u.values() }

// Values returns the grid contents.
func (w *Wavefront) Values() ([]float64, error) { return w.v.values() }

// Values returns the grid contents.
func (a *ADI) Values() ([]float64, error) { return a.u.values() }

// Iter returns completed butterfly passes.
func (f *FFT) Iter() int { return f.pass }

// Values returns the raw interleaved re/im contents of the buffer
// holding the latest pass.
func (f *FFT) Values() ([]float64, error) {
	src, _ := f.cur()
	return src.values()
}
