package autonomic

import (
	"testing"

	"repro/internal/des"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/mpi"
)

func stencilSolo() SoloFactory {
	return SoloFactory{Kernel: "stencil", N: 16, ComputeTime: 50 * des.Millisecond}
}

func fftSolo(n int) SoloFactory {
	return SoloFactory{Kernel: "fft", N: n, ComputeTime: 50 * des.Millisecond}
}

// TestSoloRunsUnderSupervision adapts a single-space kernel to the
// supervisor: a failure-free run completes all iterations and gathers
// a solution.
func TestSoloRunsUnderSupervision(t *testing.T) {
	rep, err := Run(Config{
		Workload:    stencilSolo(),
		Ranks:       1,
		Iterations:  6,
		CkptEvery:   2,
		ComputeTime: 50 * des.Millisecond,
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed || rep.Iterations != 6 {
		t.Fatalf("run: completed=%v iters=%d", rep.Completed, rep.Iterations)
	}
	if rep.Checksum == 0 {
		t.Error("no solution checksum")
	}
}

// TestSoloSpecReplayBitExact is the acceptance check for spec-driven
// exclusion on the crash path: a solo FFT run with the committed spec
// applied — twiddle table excluded from every checkpoint, recomputed
// by hook after restore — survives a mid-run crash and finishes in the
// bit-identical state of the failure-free reference.
func TestSoloSpecReplayBitExact(t *testing.T) {
	spec, err := kernels.Spec()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Workload:    fftSolo(1024), // 10 passes
		Ranks:       1,
		Iterations:  10,
		CkptEvery:   3,
		ComputeTime: 50 * des.Millisecond,
		Seed:        11,
		Spec:        spec,
		Faults:      "crash at 260ms..270ms",
		Replicas:    1,
	}
	out, err := ValidateReplay(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Injected.Failures == 0 {
		t.Fatal("chaos injected no failure; the test exercised nothing")
	}
	if !out.BitExact() {
		t.Errorf("spec-excluded replay diverged: digests=%v checksum=%v recovery=%+v",
			out.DigestsMatch, out.ChecksumMatch, out.Diverged)
	}
}

// TestSoloSpecMatchesWholeProtection pins that applying the spec does
// not change the computed solution of an unfailing run — exclusion
// must be observationally invisible outside checkpoint volume.
func TestSoloSpecMatchesWholeProtection(t *testing.T) {
	spec, err := kernels.Spec()
	if err != nil {
		t.Fatal(err)
	}
	base := Config{
		Workload:    stencilSolo(),
		Ranks:       1,
		Iterations:  6,
		CkptEvery:   2,
		ComputeTime: 50 * des.Millisecond,
		Seed:        3,
	}
	whole, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	withSpec := base
	withSpec.Spec = spec
	speced, err := Run(withSpec)
	if err != nil {
		t.Fatal(err)
	}
	if whole.Checksum != speced.Checksum {
		t.Errorf("checksum changed under spec: %x vs %x", whole.Checksum, speced.Checksum)
	}
	if speced.CheckpointVolumeMB >= whole.CheckpointVolumeMB {
		t.Errorf("spec saved nothing: %.3f MB vs %.3f MB", speced.CheckpointVolumeMB, whole.CheckpointVolumeMB)
	}
}

// TestConstructorsRefuseNonPositiveComputeTime: every fresh start and
// every restore of the three supervised computations refuses a
// non-positive compute time. Each restore runs over spaces its fresh
// start laid out, so the attach itself would succeed.
func TestConstructorsRefuseNonPositiveComputeTime(t *testing.T) {
	type build func(eng *des.Engine, w *mpi.World, ct des.Time) (Computation, error)
	stencil := func(eng *des.Engine, w *mpi.World, ct des.Time) (Computation, error) {
		return kernels.NewDistStencil(eng, w, 8, 3, 1, ct)
	}
	put := func(eng *des.Engine, w *mpi.World, ct des.Time) (Computation, error) {
		return kernels.NewDistPut(eng, w, 1, 1, 1, ct)
	}
	solo := func(ct des.Time) SoloFactory {
		f := stencilSolo()
		f.ComputeTime = ct
		return f
	}
	soloNew := func(eng *des.Engine, w *mpi.World, ct des.Time) (Computation, error) {
		return solo(ct).New(eng, w)
	}
	restored := func(fresh build, attach build) build {
		return func(eng *des.Engine, w *mpi.World, ct des.Time) (Computation, error) {
			if _, err := fresh(eng, w, des.Millisecond); err != nil {
				return nil, err
			}
			return attach(eng, w, ct)
		}
	}
	for _, c := range []struct {
		name string
		b    build
	}{
		{"NewDistStencil", stencil},
		{"AttachDistStencil", restored(stencil, func(eng *des.Engine, w *mpi.World, ct des.Time) (Computation, error) {
			return kernels.AttachDistStencil(eng, w, 8, 3, ct, 0)
		})},
		{"NewDistPut", put},
		{"AttachDistPut", restored(put, func(eng *des.Engine, w *mpi.World, ct des.Time) (Computation, error) {
			return kernels.AttachDistPut(eng, w, 1, 1, ct, 0)
		})},
		{"SoloFactory.New", soloNew},
		{"SoloFactory.Attach", restored(soloNew, func(eng *des.Engine, w *mpi.World, ct des.Time) (Computation, error) {
			return solo(ct).Attach(eng, w, 0)
		})},
	} {
		for _, ct := range []des.Time{des.Millisecond, 0, -des.Millisecond} {
			eng := des.NewEngine()
			spaces := []*mem.AddressSpace{
				mem.NewAddressSpace(mem.Config{PageSize: 4096}),
				mem.NewAddressSpace(mem.Config{PageSize: 4096}),
			}
			w, err := mpi.NewWorld(eng, mpi.QsNet(), mpi.Bounce, spaces)
			if err != nil {
				t.Fatal(err)
			}
			_, err = c.b(eng, w, ct)
			if ok := ct > 0; ok != (err == nil) {
				t.Errorf("%s, compute time %v: err = %v", c.name, ct, err)
			}
		}
	}
}

// TestSoloFailureMidDelayLandsAtCompletedIterations: a crash inside a
// sweep's compute delay lands at the iterations completed at that
// instant — the kernel has already stepped, the iteration has not
// completed — for a solo run exactly as for the distributed stencil.
func TestSoloFailureMidDelayLandsAtCompletedIterations(t *testing.T) {
	const computeT = 50 * des.Millisecond
	// No checkpoint before the end, so the sweeps run back to back and
	// the crash at 125-126 ms is inside the third one's delay.
	for _, c := range []struct {
		name string
		w    Factory
	}{
		{"solo", stencilSolo()},
		{"dist-stencil", StencilFactory{Nx: 16, RowsPerRank: 14, Boundary: 1, ComputeTime: computeT}},
	} {
		out, err := ValidateReplay(Config{
			Workload:    c.w,
			Ranks:       1,
			Iterations:  6,
			CkptEvery:   6,
			ComputeTime: computeT,
			Seed:        7,
			Faults:      "crash at 125ms..126ms",
			Replicas:    1,
		})
		if err != nil {
			t.Fatal(err)
		}
		log := out.Injected.FailureLog
		if len(log) != 1 {
			t.Fatalf("%s: %d failures, want 1", c.name, len(log))
		}
		if ev, want := log[0], 2; ev.Iter != want || ev.LostIterations != want {
			t.Errorf("%s: failure at %v: Iter %d, LostIterations %d; want %d completed",
				c.name, ev.At, ev.Iter, ev.LostIterations, want)
		}
		if !out.BitExact() {
			t.Errorf("%s: replay diverged (recovery %+v)", c.name, out.Diverged)
		}
	}
}
