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

// smoothChain is how many outputs one anchored chain of the sliding
// Hann sum runs before the next direct sum re-anchors it. The
// recurrence drifts by a rounding or two per slide, so the chain length
// bounds the error. On a 1,024-bin spectrum at n_h = 24 (-cpu 1) chains
// of 32 read a median 7.5 µs, of 64 5.7, of 128 5.3 and of 256 5.1,
// while the worst error over 2,000 random signals read 2.4e-15,
// 2.7e-15 and 3.2e-15 of max |x| at 64, 128 and 256.
const smoothChain = 128

// hannSmooth is the cached setup of the sliding Hann sum for one window
// length m > 3 (see smoothHannInto).
type hannSmooth struct {
	w        []float64 // HannWindow(m): the edges' kernel
	cos, sin []float64 // cos θj and sin θj, θ = 2π/(m−1): the anchors' phases
	rc, rs   float64   // cos θ and −sin θ: one slide's rotation e^{−iθ}
	scale    float64   // ½ over the window's mass Σ w
}

func newHannSmooth(m int) *hannSmooth {
	p := &hannSmooth{w: HannWindow(m), cos: make([]float64, m), sin: make([]float64, m)}
	for j := range m {
		// HannWindow's own angle, so an anchor's ½(S − Re C) is its
		// weighted sum term by term.
		ang := 2 * math.Pi * float64(j) / float64(m-1)
		p.cos[j], p.sin[j] = math.Cos(ang), math.Sin(ang)
	}
	p.rc, p.rs = p.cos[1], -p.sin[1]
	var total float64
	for _, v := range p.w {
		total += v
	}
	p.scale = 0.5 / total
	return p
}

// smoothHannInto smooths x with the length-m Hann window, normalised by
// the local window mass with symmetric (reflected) boundary handling,
// so a constant input stays constant near the edges. This is the
// "smooth PSD over adjacent frequencies by convolutions using a Hann
// window" step of the paper's harmonic-peak search (§IV-B step 1). It
// writes into dst (grown if needed, returned resliced to len(x)); dst
// may not alias x. m <= 3 copies x: Hann(1) = [1] and Hann(3) = [0 1 0]
// are the identity, and Hann(2) = [0 0] has no mass to smooth with.
//
// The Hann window is a raised cosine, w[j] = ½(1 − cos θj), so an
// interior output is ½(S − Re C)/Σw with S = Σ x[s+j] and C = Σ
// x[s+j]·e^{iθj} over the window starting at s. Both slide one bin in
// O(1): S' = S − x[s] + x[s+m] and, as θ(m−1) = 2π, C' = e^{−iθ}(C −
// x[s]) + x[s+m]. The interior is cut into chains of at most
// smoothChain outputs, each anchored by one direct sum; four run in
// lockstep so their recurrences do not wait on one another, and fewer
// than four outputs left over are direct sums. Against the direct
// weighted sum an interior output is off by at most 1e-13 times the
// largest |x| within smoothChain bins of its window (every bin its chain
// can read; the worst measured is 2.7e-15); the edge bands run
// smoothEdges, the direct reflected convolution, bit for bit.
func smoothHannInto(dst, x []float64, m int) []float64 {
	n := len(x)
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	if m <= 3 {
		copy(dst, x)
		return dst
	}
	p := hannSmoothPlans.get(m, newHannSmooth)
	half := m / 2
	lo, hi := half, n-(m-1-half)
	if lo > n {
		lo = n
	}
	if hi < lo {
		hi = lo
	}
	for i := lo; i < hi; {
		k := min(smoothChain, (hi-i)/4)
		if k == 0 {
			for ; i < hi; i++ {
				s, c, _ := p.anchor(x[i-half : i-half+m])
				dst[i] = (s - c) * p.scale
			}
			break
		}
		p.chains4(dst[i:i+4*k], x[i-half:i-half+4*k+m-1], k)
		i += 4 * k
	}
	smoothEdges(dst, x, p.w, 0, lo)
	smoothEdges(dst, x, p.w, hi, n)
	return dst
}

// anchor is the direct sum of the window b: S, Re C and Im C.
func (p *hannSmooth) anchor(b []float64) (s, cr, ci float64) {
	b = b[:len(p.cos)]
	for j, v := range b {
		s += v
		cr += float64(v * p.cos[j])
		ci += float64(v * p.sin[j])
	}
	return s, cr, ci
}

// chains4 runs four chains of k outputs in lockstep: chain q writes
// d[q·k : (q+1)·k] from the windows starting at x[q·k], anchored at its
// first output. Every product is rounded before its add (the float64
// conversions), so no target fuses the recurrence into a different
// rounding.
func (p *hannSmooth) chains4(d, x []float64, k int) {
	m := len(p.cos)
	rc, rs, scale := p.rc, p.rs, p.scale
	s0, r0, i0 := p.anchor(x[0:])
	s1, r1, i1 := p.anchor(x[k:])
	s2, r2, i2 := p.anchor(x[2*k:])
	s3, r3, i3 := p.anchor(x[3*k:])
	d0, d1, d2, d3 := d[0:k], d[k:2*k], d[2*k:3*k], d[3*k:4*k]
	d0[0], d1[0], d2[0], d3[0] = (s0-r0)*scale, (s1-r1)*scale, (s2-r2)*scale, (s3-r3)*scale
	// Slide t leaves x[q·k+t−1] and enters x[q·k+t−1+m].
	d0, d1, d2, d3 = d0[1:], d1[1:], d2[1:], d3[1:]
	o0, o1, o2, o3 := x[0:k-1], x[k:2*k-1], x[2*k:3*k-1], x[3*k:4*k-1]
	n0, n1, n2, n3 := x[m:m+k-1], x[k+m:2*k+m-1], x[2*k+m:3*k+m-1], x[3*k+m:4*k+m-1]
	// Equal lengths, restated, let the compiler drop every bounds check
	// of the loop.
	l := len(d0)
	d1, d2, d3 = d1[:l], d2[:l], d3[:l]
	o0, o1, o2, o3 = o0[:l], o1[:l], o2[:l], o3[:l]
	n0, n1, n2, n3 = n0[:l], n1[:l], n2[:l], n3[:l]
	for t := range d0 {
		v, w := o0[t], n0[t]
		s0 = s0 - v + w
		a := r0 - v
		r0 = float64(rc*a) - float64(rs*i0) + w
		i0 = float64(rc*i0) + float64(rs*a)
		d0[t] = (s0 - r0) * scale

		v, w = o1[t], n1[t]
		s1 = s1 - v + w
		a = r1 - v
		r1 = float64(rc*a) - float64(rs*i1) + w
		i1 = float64(rc*i1) + float64(rs*a)
		d1[t] = (s1 - r1) * scale

		v, w = o2[t], n2[t]
		s2 = s2 - v + w
		a = r2 - v
		r2 = float64(rc*a) - float64(rs*i2) + w
		i2 = float64(rc*i2) + float64(rs*a)
		d2[t] = (s2 - r2) * scale

		v, w = o3[t], n3[t]
		s3 = s3 - v + w
		a = r3 - v
		r3 = float64(rc*a) - float64(rs*i3) + w
		i3 = float64(rc*i3) + float64(rs*a)
		d3[t] = (s3 - r3) * scale
	}
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
			sum += float64(x[idx] * kernel[j])
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
		out[i] = float64(alpha*x[i]) + float64((1-alpha)*out[i-1])
	}
	return out
}
