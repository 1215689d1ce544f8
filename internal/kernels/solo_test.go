package kernels

import (
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/mem"
)

// TestCkptSetKernelsByName: every named kernel builds, steps k times and
// re-attaches over the same space at k holding the same values; an
// unknown name is refused with the valid names.
func TestCkptSetKernelsByName(t *testing.T) {
	const n, k = 16, 3
	for _, name := range soloNames() {
		sp := mem.NewAddressSpace(mem.Config{PageSize: 4096})
		kern, err := NewSoloKernel(name, sp, n)
		if err != nil {
			t.Fatalf("%s: build: %v", name, err)
		}
		for i := 0; i < k; i++ {
			if err := kern.Step(); err != nil {
				t.Fatalf("%s: step %d: %v", name, i, err)
			}
		}
		want, err := kern.Values()
		if err != nil {
			t.Fatal(err)
		}
		again, err := AttachSoloKernel(name, sp, n, k)
		if err != nil {
			t.Fatalf("%s: attach: %v", name, err)
		}
		got, err := again.Values()
		if err != nil {
			t.Fatal(err)
		}
		if again.Iter() != k || !slices.Equal(got, want) {
			t.Errorf("%s: re-attached at iteration %d, want %d; values equal: %v", name, again.Iter(), k, slices.Equal(got, want))
		}
	}
	sp := mem.NewAddressSpace(mem.Config{PageSize: 4096})
	if _, err := NewSoloKernel("jacobi", sp, n); err == nil || !strings.Contains(err.Error(), "adi, fft, ssor, stencil, wavefront") {
		t.Errorf("unknown kernel built: %v", err)
	}
	if _, err := AttachSoloKernel("jacobi", sp, n, 0); err == nil {
		t.Error("unknown kernel attached")
	}
}

// soloNames lists soloKernels' names in order.
func soloNames() []string {
	var names []string
	for n := range soloKernels {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
