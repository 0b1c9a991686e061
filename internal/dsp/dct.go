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
// even-odd permutation, supporting arbitrary K: for an even K its
// samples are written in pairs straight to their slots of a K/2-point
// complex FFT, whose split pass yields the coefficients (see realPlan);
// an odd K runs a K-point complex FFT of the permuted input and a
// cos/sin recombination. Steady-state calls with an adequate dst are
// allocation-free.
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
	if n%2 == 1 {
		oddDCT(dst, x)
		return dst
	}
	p := planReal(n)
	buf := getCBuf(p.m)
	z := buf.s
	slot := p.slot[:p.m]
	for b := 0; b < n/4; b++ {
		q := x[4*b : 4*b+4 : 4*b+4]
		z[slot[2*b]] = complex(q[0], q[2])
		z[slot[2*b+1]] = complex(q[3], q[1])
	}
	if n%4 == 2 {
		z[slot[p.m-1]] = complex(x[n-2], x[n-1])
	}
	p.dctFromSlots(dst, z)
	putCBuf(buf)
	return dst
}

// oddDCT is DCTInto's odd-length path: the even-odd permuted input
// v = [x0, x2, …, x3, x1] through Bluestein's n-point FFT, then
// C[k] = Re(e^{-iπk/(2n)} · V[k]), scaled.
func oddDCT(dst, x []float64) {
	n := len(x)
	p := planDCT(n)
	buf := getCBuf(n)
	v := buf.s
	for j, xj := range x {
		v[makhoulIndex(j, n)] = complex(xj, 0)
	}
	planBluestein(n).transform(v, false)
	dst[0] = real(v[0]) * p.scale0
	for k := 1; k < n; k++ {
		dst[k] = (real(v[k])*p.cosT[k] + imag(v[k])*p.sinT[k]) * p.scaleK
	}
	putCBuf(buf)
}

// makhoulIndex is where sample j of n sits in Makhoul's even-odd
// permutation [x0, x2, x4, ..., x5, x3, x1].
func makhoulIndex(j, n int) int {
	if j&1 == 1 {
		return n - 1 - j/2
	}
	return j / 2
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
