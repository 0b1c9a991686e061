// Package dsp provides the signal-processing substrate used by the
// vibration-analysis engine: FFT and DCT transforms, power spectral
// density estimation, window functions, convolution smoothing, peak
// detection, and the small amount of dense linear algebra needed by the
// baseline feature metrics.
//
// Everything is implemented on float64 slices with no external
// dependencies. Transform sizes are arbitrary: power-of-two sizes use an
// iterative radix-2 Cooley-Tukey FFT and other sizes fall back to
// Bluestein's chirp-z algorithm. Per-length setup (twiddle factors,
// bit-reversal tables, chirp sequences) is computed once and cached in a
// concurrency-safe plan registry, and transient work arrays come from
// scratch pools, so steady-state transforms are allocation-free.
package dsp

import (
	"fmt"
)

// FFT computes the in-place forward discrete Fourier transform of x.
// The input length may be any positive integer. The transform follows
// the usual engineering convention X[k] = sum_n x[n] exp(-2πi kn/N).
func FFT(x []complex128) {
	n := len(x)
	if n <= 1 {
		return
	}
	if n&(n-1) == 0 {
		planFFT(n).transform(x, false)
		return
	}
	planBluestein(n).transform(x, false)
}

// IFFT computes the in-place inverse discrete Fourier transform of x,
// including the 1/N normalization, so that IFFT(FFT(x)) == x up to
// floating-point error.
func IFFT(x []complex128) {
	n := len(x)
	if n <= 1 {
		return
	}
	if n&(n-1) == 0 {
		planFFT(n).transform(x, true)
	} else {
		planBluestein(n).transform(x, true)
	}
	scale := complex(1/float64(n), 0)
	for i := range x {
		x[i] *= scale
	}
}

// RealFFT computes the DFT of a real-valued signal and returns the
// complex half-spectrum of length len(x)/2+1 (bins 0..N/2). The input
// slice is not modified.
func RealFFT(x []float64) []complex128 {
	return RealFFTInto(make([]complex128, len(x)/2+1), x)
}

// RealFFTInto is RealFFT writing the half-spectrum into dst, which is
// grown if its capacity is short and returned resliced to len(x)/2+1.
// Steady-state calls with an adequate dst do not allocate.
func RealFFTInto(dst []complex128, x []float64) []complex128 {
	n := len(x)
	half := n/2 + 1
	if cap(dst) < half {
		dst = make([]complex128, half)
	}
	dst = dst[:half]
	if n == 0 {
		dst[0] = 0
		return dst
	}
	buf := getCBuf(n)
	for i, v := range x {
		buf.s[i] = complex(v, 0)
	}
	FFT(buf.s)
	copy(dst, buf.s[:half])
	putCBuf(buf)
	return dst
}

// checkLen panics with a descriptive message when two parallel slices
// disagree in length. It is used by internal kernels whose contracts
// require matched lengths; public entry points validate and return
// errors instead.
func checkLen(name string, a, b int) {
	if a != b {
		panic(fmt.Sprintf("dsp: %s: length mismatch %d != %d", name, a, b))
	}
}
