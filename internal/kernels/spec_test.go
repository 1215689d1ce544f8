package kernels

import (
	"testing"

	"repro/internal/ckptspec"
	"repro/internal/mem"
)

// TestSpecParsesAndClassifies pins the committed kernels.ckptspec: it
// parses, names this package, and classifies the known allocation
// sites the way the paper's ablation depends on — grids must, staging
// arenas recomputable, the twiddle table recomputable, raw arenas
// unknown.
func TestSpecParsesAndClassifies(t *testing.T) {
	spec, err := Spec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Package != "repro/internal/kernels" {
		t.Errorf("spec package = %q", spec.Package)
	}
	wantClass := map[string]ckptspec.Class{
		"Stencil2D.a":    ckptspec.Must,
		"Stencil2D.b":    ckptspec.Must,
		"Stencil2D.work": ckptspec.Recomputable,
		"SSOR.u":         ckptspec.Must,
		"SSOR.work":      ckptspec.Recomputable,
		"Wavefront.v":    ckptspec.Must,
		"Wavefront.work": ckptspec.Recomputable,
		"ADI.u":          ckptspec.Must,
		"ADI.work":       ckptspec.Recomputable,
		"FFT.x":          ckptspec.Must,
		"FFT.y":          ckptspec.Must,
		"FFT.tw":         ckptspec.Recomputable,
		"DistPut.arenas": ckptspec.Unknown,
	}
	for name, class := range wantClass {
		r, ok := spec.Lookup(name)
		if !ok {
			t.Errorf("spec missing %s", name)
			continue
		}
		if r.Class != class {
			t.Errorf("%s = %s, want %s", name, r.Class, class)
		}
	}
}

// TestBindingsCoverSpec builds every single-space kernel and checks
// each binding resolves to a spec entry with a live region, and that
// the recomputable selection is exactly the staging arenas (plus the
// FFT table, which must carry its recompute hook).
func TestBindingsCoverSpec(t *testing.T) {
	spec, err := Spec()
	if err != nil {
		t.Fatal(err)
	}
	space := func() *mem.AddressSpace {
		return mem.NewAddressSpace(mem.Config{PageSize: 4096})
	}
	type bound interface {
		ProtectionBindings() []ckptspec.Binding
	}
	build := []struct {
		name       string
		kernel     func() (bound, error)
		recompute  []string
		needsHooks []string
	}{
		{"stencil", func() (bound, error) { return NewStencil2D(space(), 8, 8, 1) }, []string{"Stencil2D.work"}, nil},
		{"ssor", func() (bound, error) { return newSSOR(freshArenas(space()), 8, 8, 0, 1, 1.2) }, []string{"SSOR.work"}, nil},
		{"wavefront", func() (bound, error) { return newWavefront(freshArenas(space()), 8, 8, 0, 1) }, []string{"Wavefront.work"}, nil},
		{"adi", func() (bound, error) { return newADI(freshArenas(space()), 8, 8, 0, 1, 0.5) }, []string{"ADI.work"}, nil},
		{"fft", func() (bound, error) { return newFFT(freshArenas(space()), 64, 0) }, []string{"FFT.tw", "FFT.x"}, []string{"FFT.tw"}},
	}
	for _, b := range build {
		k, err := b.kernel()
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		bindings := k.ProtectionBindings()
		for _, bd := range bindings {
			if _, ok := spec.Lookup(bd.Name); !ok {
				t.Errorf("%s: binding %s has no spec entry", b.name, bd.Name)
			}
			if bd.Region == nil {
				t.Errorf("%s: binding %s has nil region", b.name, bd.Name)
			}
		}
		ex := spec.Apply(bindings)
		var exNames []string
		for _, e := range ex {
			exNames = append(exNames, e.Name)
		}
		// recompute lists the bindings that may be excluded; FFT.x is
		// in the candidate list above only to document it must NOT be
		// selected (it is must-class).
		want := map[string]bool{}
		for _, n := range b.recompute {
			if r, ok := spec.Lookup(n); ok && !r.Class.Protected() {
				want[n] = true
			}
		}
		if len(exNames) != len(want) {
			t.Errorf("%s: recomputable = %v, want %v", b.name, exNames, want)
		}
		for _, n := range exNames {
			if !want[n] {
				t.Errorf("%s: unexpectedly excludable: %s", b.name, n)
			}
		}
		hooks := map[string]bool{}
		for _, n := range b.needsHooks {
			hooks[n] = true
		}
		for _, e := range ex {
			if hooks[e.Name] && e.Recompute == nil {
				t.Errorf("%s: %s excluded without a recompute hook", b.name, e.Name)
			}
		}
	}
}
