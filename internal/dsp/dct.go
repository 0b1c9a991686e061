package dsp

import "math"

// DCT computes the orthonormal DCT-II of x, the transform the paper
// writes as the K×K matrix W_K. With the orthonormal scaling used here,
// Parseval's theorem holds exactly: sum(x^2) == sum(DCT(x)^2), which is
// the identity the paper relies on to show that the PSD feature s_mn
// alone spans the feature space ((rms)^2 == sum_k s_k).
func DCT(x []float64) []float64 {
	return DCTInto(make([]float64, len(x)), x)
}

// DCTInto is DCT writing the coefficients into dst, which is grown if
// its capacity is short and returned resliced to len(x). dst and x may
// not alias. The transform is evaluated in O(K log K) via Makhoul's
// even-odd permutation: a single length-K FFT, its input written
// straight to the plan's slots, followed by a cached cos/sin
// recombination, supporting arbitrary K. Steady-state calls with
// an adequate dst are allocation-free.
func DCTInto(dst, x []float64) []float64 {
	n := len(x)
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	if n == 0 {
		return dst
	}
	if n == 1 {
		dst[0] = x[0]
		return dst
	}
	p := planDCT(n)
	buf := getCBuf(n)
	v := buf.s
	slot := p.slot[:n]
	for j, xj := range x {
		v[slot[j]] = complex(xj, 0)
	}
	p.transform(v)
	// Raw DCT-II coefficient: C[k] = Re(e^{-iπk/(2n)} · V[k]).
	dst[0] = real(v[0]) * p.scale0
	for k := 1; k < n; k++ {
		dst[k] = (real(v[k])*p.cosT[k] + imag(v[k])*p.sinT[k]) * p.scaleK
	}
	putCBuf(buf)
	return dst
}

// IDCT computes the inverse of DCT (the orthonormal DCT-III), so that
// IDCT(DCT(x)) == x up to floating-point error. The direct O(n²)
// evaluation is used: the inverse transform appears only in tests and
// offline tooling, never on the per-measurement hot path.
func IDCT(c []float64) []float64 {
	n := len(c)
	out := make([]float64, n)
	if n == 0 {
		return out
	}
	c0 := math.Sqrt(1 / float64(n))
	ck := math.Sqrt(2 / float64(n))
	for i := 0; i < n; i++ {
		sum := c0 * c[0]
		for k := 1; k < n; k++ {
			sum += ck * c[k] * math.Cos(math.Pi*float64(k)*(2*float64(i)+1)/(2*float64(n)))
		}
		out[i] = sum
	}
	return out
}
