package kernels

import (
	"fmt"
	"math"
	"math/cmplx"
)

// FFT is an out-of-place iterative radix-2 Stockham FFT whose complex
// data lives in two ping-pong arrays in a simulated address space — the
// scaled-down counterpart of NAS FT. Each pass reads one buffer and
// writes the other, so the write set alternates between two arenas, the
// double-buffering pattern that shapes FT's measured IWS.
type FFT struct {
	n    int
	x, y *Array // interleaved re/im pairs: 2n float64 each
	tw   *Array // twiddle table: exp(-iπ m/(n/2)) for m in [0, n/2), re/im interleaved
	pass int    // completed butterfly passes (for mid-transform ckpt tests)
	// in, out and twid are Step's scratch: the pass's source, its
	// result and the twiddle table, made on the first Step.
	in, out, twid []float64
}

// newFFT builds an n-point transform (n a power of two) over src's
// ping-pong buffers and twiddle table, after pass butterfly passes (the
// ping-pong parity selects which buffer holds the live data). A fresh
// build fills the table; load gives it its signal.
func newFFT(src *arenas, n, pass int) (*FFT, error) {
	if n < 2 || n&(n-1) != 0 || pass < 0 {
		return nil, fmt.Errorf("kernels: FFT size %d is not a power of two >= 2, or pass %d < 0", n, pass)
	}
	x, err := src.array(2 * n)
	if err != nil {
		return nil, err
	}
	y, err := src.array(2 * n)
	if err != nil {
		return nil, err
	}
	tw, err := src.array(n)
	if err != nil {
		return nil, err
	}
	f := &FFT{n: n, x: x, y: y, tw: tw, pass: pass}
	if src.restored {
		return f, nil
	}
	if err := f.fillTwiddles(); err != nil {
		return nil, err
	}
	return f, nil
}

// fillTwiddles (re)derives the twiddle table from the transform size
// alone: T[m] = exp(-iπ m/(n/2)). It is a pure function of n, so it
// doubles as the restore-time recompute hook when the table is dropped
// from checkpoint lines — a restored, zero-filled table arena is
// rebuilt bit-identically.
func (f *FFT) fillTwiddles() error {
	half := f.n / 2
	buf := make([]float64, 2*half)
	for m := 0; m < half; m++ {
		w := cmplx.Exp(complex(0, -math.Pi*float64(m)/float64(half)))
		buf[2*m] = real(w)
		buf[2*m+1] = imag(w)
	}
	return f.tw.Write(buf, 0)
}

// load writes the input signal into the primary buffer.
func (f *FFT) load(signal []complex128) error {
	if len(signal) != f.n {
		return fmt.Errorf("kernels: FFT input length %d, want %d", len(signal), f.n)
	}
	buf := make([]float64, 2*f.n)
	for i, c := range signal {
		buf[2*i] = real(c)
		buf[2*i+1] = imag(c)
	}
	f.pass = 0
	return f.x.Write(buf, 0)
}

// cur returns (src, dst) for the next pass.
func (f *FFT) cur() (*Array, *Array) {
	if f.pass%2 == 0 {
		return f.x, f.y
	}
	return f.y, f.x
}

// log2 returns log2(n) for a power-of-two n.
func log2(n int) int {
	p := 0
	for 1<<p < n {
		p++
	}
	return p
}

// Step performs one Stockham butterfly pass (there are log2(n) in
// total), so the passes supervise like iterations and a checkpoint can
// interrupt the transform midway.
func (f *FFT) Step() error {
	src, dst := f.cur()
	n := f.n
	l := 1 << f.pass // current butterfly span
	half := n / 2
	if l > half {
		return fmt.Errorf("kernels: FFT pass %d beyond the %d passes of a %d-point transform", f.pass, log2(n), n)
	}
	if f.in == nil {
		f.in, f.out, f.twid = make([]float64, 2*n), make([]float64, 2*n), make([]float64, 2*half)
	}
	in, out, twid := f.in, f.out, f.twid
	if err := src.Read(in, 0); err != nil {
		return err
	}
	// The per-group twiddle exp(-iπ j/l) is table entry m = j·(half/l):
	// half/l is a power of two, and scaling by a power of two commutes
	// exactly with float64 rounding, so -π·m/half and -π·j/l round to
	// the same value and the looked-up twiddles are bit-identical to
	// the previously inlined cmplx.Exp.
	if err := f.tw.Read(twid, 0); err != nil {
		return err
	}
	for j := 0; j < l; j++ {
		m := j * (half / l)
		w := complex(twid[2*m], twid[2*m+1])
		for k := j; k < half; k += l {
			aRe, aIm := in[2*k], in[2*k+1]
			bRe, bIm := in[2*(k+half)], in[2*(k+half)+1]
			b := complex(bRe, bIm) * w
			// Stockham self-sorting placement: group q of span l
			// scatters to j + 2*l*q and j + 2*l*q + l.
			kq := (k - j) / l
			outIdx := j + 2*l*kq
			a := complex(aRe, aIm)
			sum := a + b
			diff := a - b
			out[2*outIdx] = real(sum)
			out[2*outIdx+1] = imag(sum)
			out[2*(outIdx+l)] = real(diff)
			out[2*(outIdx+l)+1] = imag(diff)
		}
	}
	if err := dst.Write(out, 0); err != nil {
		return err
	}
	f.pass++
	return nil
}

// result reads the spectrum out of the buffer holding the latest pass.
func (f *FFT) result() ([]complex128, error) {
	buf, err := f.Values()
	if err != nil {
		return nil, err
	}
	out := make([]complex128, f.n)
	for i := range out {
		out[i] = complex(buf[2*i], buf[2*i+1])
	}
	return out, nil
}

// NaiveDFT computes the reference O(n^2) transform of signal, for
// validating the FFT.
//
//lint:ignore deadexport reference oracle the FFT tests compare against
func NaiveDFT(signal []complex128) []complex128 {
	n := len(signal)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for t := 0; t < n; t++ {
			angle := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			sum += signal[t] * cmplx.Exp(complex(0, angle))
		}
		out[k] = sum
	}
	return out
}
