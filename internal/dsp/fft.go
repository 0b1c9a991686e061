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

// checkLen panics with a descriptive message when two parallel slices
// disagree in length. It is used by internal kernels whose contracts
// require matched lengths; public entry points validate and return
// errors instead.
func checkLen(name string, a, b int) {
	if a != b {
		panic(fmt.Sprintf("dsp: %s: length mismatch %d != %d", name, a, b))
	}
}
