package dsp

import "math"

// HannWindow returns the length-n Hann window the paper uses to smooth
// PSDs before peak search: w(i) = 0.5·(1 − cos(2πi/(n−1))). For n == 1
// the window is the single sample {1}.
func HannWindow(n int) []float64 {
	w := make([]float64, n)
	if n <= 0 {
		return w
	}
	if n == 1 {
		w[0] = 1
		return w
	}
	for i := 0; i < n; i++ {
		w[i] = 0.5 * (1 - math.Cos(2*math.Pi*float64(i)/float64(n-1)))
	}
	return w
}

// SmoothConvolveInto convolves x with kernel k using symmetric
// (reflected) boundary handling and normalizes by the local kernel
// mass, so a constant input stays constant near the edges. This is the
// "smooth PSD over adjacent frequencies by convolutions using a Hann
// window" step of the paper's harmonic-peak search (§IV-B step 1). It
// writes into dst (grown if needed, returned resliced to len(x)); dst
// may not alias x. Interior points — where the kernel never crosses a
// boundary — run a branch-free inner loop with the precomputed total
// kernel mass; only the two edge bands pay for reflection handling.
func SmoothConvolveInto(dst, x, kernel []float64) []float64 {
	n := len(x)
	m := len(kernel)
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	if n == 0 {
		return dst
	}
	if m == 0 {
		copy(dst, x)
		return dst
	}
	half := m / 2
	var total float64
	for _, k := range kernel {
		total += k
	}
	lo := half
	hi := n - (m - 1 - half)
	if lo > n {
		lo = n
	}
	if hi < lo {
		hi = lo
	}
	if total != 0 {
		inv := 1 / total
		i := lo
		// Two outputs per pass share each kernel tap and all but one
		// signal load. Each output keeps its own four accumulators, fed
		// in the one-output loop's order, so both are its bits.
		for ; i+1 < hi; i += 2 {
			// b covers both outputs' windows: output i reads b[j] and
			// output i+1 reads b[j+1]. Re-slicing both operands by four
			// lets the compiler drop every bounds check of the inner loop.
			b, k := x[i-half:i-half+m+1], kernel
			var s0, s1, s2, s3, t0, t1, t2, t3 float64
			for len(b) >= 5 && len(k) >= 4 {
				s0 += b[0] * k[0]
				t0 += b[1] * k[0]
				s1 += b[1] * k[1]
				t1 += b[2] * k[1]
				s2 += b[2] * k[2]
				t2 += b[3] * k[2]
				s3 += b[3] * k[3]
				t3 += b[4] * k[3]
				b, k = b[4:], k[4:]
			}
			for j, kj := range k {
				s0 += b[j] * kj
				t0 += b[j+1] * kj
			}
			dst[i] = (s0 + s1 + s2 + s3) * inv
			dst[i+1] = (t0 + t1 + t2 + t3) * inv
		}
		if i < hi {
			dst[i] = dot4(x[i-half:i-half+m], kernel) * inv // the last of an odd count
		}
	} else {
		for i := lo; i < hi; i++ {
			dst[i] = 0
		}
	}
	smoothEdges(dst, x, kernel, 0, lo)
	smoothEdges(dst, x, kernel, hi, n)
	return dst
}

// dot4 is the dot product of b and k (len(b) >= len(k)) over four
// accumulators, the one-output form of the interior loop: tap j feeds
// accumulator j mod 4, and the tail past the last full four feeds the
// first. Re-slicing both operands by four lets the compiler drop every
// bounds check of the loop.
func dot4(b, k []float64) float64 {
	var s0, s1, s2, s3 float64
	for len(b) >= 4 && len(k) >= 4 {
		s0 += b[0] * k[0]
		s1 += b[1] * k[1]
		s2 += b[2] * k[2]
		s3 += b[3] * k[3]
		b, k = b[4:], k[4:]
	}
	for j, kj := range k {
		s0 += b[j] * kj
	}
	return s0 + s1 + s2 + s3
}

// smoothEdges runs the reflecting-boundary convolution over [from, to).
func smoothEdges(dst, x, kernel []float64, from, to int) {
	n := len(x)
	m := len(kernel)
	half := m / 2
	for i := from; i < to; i++ {
		var sum, mass float64
		for j := 0; j < m; j++ {
			idx := i + j - half
			// Reflect out-of-range indices back into the signal.
			if idx < 0 {
				idx = -idx - 1
			}
			if idx >= n {
				idx = 2*n - idx - 1
			}
			if idx < 0 || idx >= n {
				continue // kernel wider than twice the signal
			}
			sum += x[idx] * kernel[j]
			mass += kernel[j]
		}
		if mass != 0 {
			dst[i] = sum / mass
		} else {
			dst[i] = 0
		}
	}
}

// EWMA returns the exponentially weighted moving average of x with
// smoothing factor alpha in (0, 1]. The first output equals the first
// input. EWMA backs the sequential trend tracker extension.
func EWMA(x []float64, alpha float64) []float64 {
	n := len(x)
	out := make([]float64, n)
	if n == 0 {
		return out
	}
	if alpha <= 0 || alpha > 1 {
		alpha = 1
	}
	out[0] = x[0]
	for i := 1; i < n; i++ {
		out[i] = alpha*x[i] + (1-alpha)*out[i-1]
	}
	return out
}
